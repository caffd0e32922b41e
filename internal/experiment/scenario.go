package experiment

import (
	"math/rand"
	"time"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/workload"
)

// pick returns the small or full value of a scale-dependent parameter.
func pick(small bool, smallVal, fullVal int) int {
	if small {
		return smallVal
	}
	return fullVal
}

// defaultNet is the network environment shared by all experiments: 2ms
// constant latency, lossless unless an experiment injects loss.
func defaultNet() simnet.Config {
	return simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)}
}

// topicScenario builds a cluster plus a Zipf topic workload with
// heterogeneous subscriptions: node i subscribes to SubCount(1,maxSubs)
// topics drawn by popularity. It returns the cluster, the topic set, and
// the per-topic subscriber lists.
type topicScenario struct {
	cluster *core.ShardedCluster
	topics  *workload.Topics
	subsOf  map[string][]int
	rng     *rand.Rand
}

func newTopicScenario(n, k, maxSubs int, cfg core.Config, seed int64) *topicScenario {
	s := &topicScenario{
		topics: workload.NewTopics(k, 1.01),
		subsOf: make(map[string][]int, k),
		rng:    rand.New(rand.NewSource(seed + 101)),
	}
	s.cluster = core.NewShardedCluster(n, 1, cfg, core.ClusterOptions{
		Seed:      seed,
		NetConfig: defaultNet(),
	})
	for i := 0; i < n; i++ {
		count := workload.SubCount(s.rng, 1, maxSubs)
		for _, topic := range s.topics.SampleSet(s.rng, count) {
			s.cluster.Node(i).Subscribe(pubsub.Topic(topic))
			s.subsOf[topic] = append(s.subsOf[topic], i)
		}
	}
	return s
}

// publishRounds publishes `perRound` events per round for `rounds`
// rounds, each on a popularity-sampled topic, from a random subscriber of
// that topic (falling back to a random node when the topic has no
// subscribers). payload is the event payload size in bytes.
func (s *topicScenario) publishRounds(rounds, perRound, payload int) {
	n := len(s.cluster.Nodes)
	for r := 0; r < rounds; r++ {
		for p := 0; p < perRound; p++ {
			topic := s.topics.Sample(s.rng)
			var pub int
			if subs := s.subsOf[topic]; len(subs) > 0 {
				pub = subs[s.rng.Intn(len(subs))]
			} else {
				pub = s.rng.Intn(n)
			}
			s.cluster.Node(pub).Publish(topic, nil, make([]byte, payload))
		}
		s.cluster.RunRounds(1)
	}
}

// windowReport computes a fairness report over the delta between two
// ledger snapshots.
func windowReport(prev, cur []fairness.Account, w fairness.Weights) fairness.Report {
	deltas := make([]fairness.Account, len(cur))
	for i := range cur {
		if i < len(prev) {
			deltas[i] = fairness.Delta(cur[i], prev[i])
		} else {
			deltas[i] = cur[i]
		}
	}
	return fairness.ReportAccounts(deltas, w)
}

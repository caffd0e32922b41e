package core

import (
	"testing"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

func TestInterestFingerprint(t *testing.T) {
	var a, b pubsub.Interest
	a.Subscribe(pubsub.Topic("sports"))
	b.Subscribe(pubsub.Topic("sports"))
	if interestFingerprint(&a) != interestFingerprint(&b) {
		t.Fatal("identical interest must fingerprint identically")
	}
	var c pubsub.Interest
	c.Subscribe(pubsub.Topic("finance"))
	if interestFingerprint(&a) == interestFingerprint(&c) {
		t.Fatal("distinct topics collided (unlikely)")
	}
	var empty pubsub.Interest
	if interestFingerprint(&empty) != 0 {
		t.Fatal("empty interest must fingerprint to 0")
	}
	// Overlap is monotone in shared subscriptions.
	var both pubsub.Interest
	both.Subscribe(pubsub.Topic("sports"))
	both.Subscribe(pubsub.Topic("finance"))
	fa, fc, fb := interestFingerprint(&a), interestFingerprint(&c), interestFingerprint(&both)
	if fingerprintOverlap(fa, fb) == 0 || fingerprintOverlap(fc, fb) == 0 {
		t.Fatal("superset interest must overlap both parts")
	}
	if fingerprintOverlap(fa, fc) >= fingerprintOverlap(fa, fb) {
		t.Fatal("disjoint interest overlaps as much as shared interest")
	}
}

func TestEventFingerprintMatchesTopicSubscription(t *testing.T) {
	var in pubsub.Interest
	in.Subscribe(pubsub.Topic("sports"))
	ev := &pubsub.Event{Topic: "sports"}
	if fingerprintOverlap(eventFingerprint(ev), interestFingerprint(&in)) == 0 {
		t.Fatal("event must overlap a subscription to its topic")
	}
	other := &pubsub.Event{Topic: "weather"}
	if eventFingerprint(other) == eventFingerprint(ev) {
		t.Fatal("distinct topics collided (unlikely)")
	}
	if batchFingerprint([]*pubsub.Event{ev, other}) !=
		eventFingerprint(ev)|eventFingerprint(other) {
		t.Fatal("batch fingerprint must union event fingerprints")
	}
}

func TestBiasedPeersFallsBackUniform(t *testing.T) {
	c := NewShardedCluster(16, 1, Config{Mode: ModeContent, SemanticBias: 0.5}, ClusterOptions{Seed: 1})
	nd := c.Node(0)
	// No fingerprints learned yet: uniform sampling still works.
	got := nd.biasedPeers(4, 0xFFFF)
	if len(got) == 0 {
		t.Fatal("no partners sampled")
	}
	for _, id := range got {
		if id == nd.ID() {
			t.Fatal("sampled self")
		}
	}
	// Zero batch fingerprint (pure content filters) also falls back.
	if got := nd.biasedPeers(4, 0); len(got) == 0 {
		t.Fatal("zero-fingerprint fallback failed")
	}
}

func TestBiasedPeersPrefersBatchOverlap(t *testing.T) {
	c := NewShardedCluster(16, 1, Config{Mode: ModeContent, SemanticBias: 1.0}, ClusterOptions{Seed: 2})
	nd := c.Node(0)

	var same, other pubsub.Interest
	same.Subscribe(pubsub.Topic("sports"))
	other.Subscribe(pubsub.Topic("weather"))
	nd.rememberFingerprint(5, interestFingerprint(&same))
	nd.rememberFingerprint(9, interestFingerprint(&other))

	batch := eventFingerprint(&pubsub.Event{Topic: "sports"})
	counts := map[simnet.NodeID]int{}
	for trial := 0; trial < 50; trial++ {
		for _, id := range nd.biasedPeers(1, batch) {
			counts[id]++
		}
	}
	if counts[5] < 45 {
		t.Fatalf("batch-matching peer picked only %d/50 times with full bias", counts[5])
	}
}

func TestBiasedPeersNoDuplicates(t *testing.T) {
	c := NewShardedCluster(32, 1, Config{Mode: ModeContent, SemanticBias: 0.5}, ClusterOptions{Seed: 3})
	nd := c.Node(0)
	var in pubsub.Interest
	in.Subscribe(pubsub.Topic("x"))
	fp := interestFingerprint(&in)
	for id := simnet.NodeID(1); id <= 10; id++ {
		nd.rememberFingerprint(id, fp)
	}
	batch := eventFingerprint(&pubsub.Event{Topic: "x"})
	for trial := 0; trial < 20; trial++ {
		got := nd.biasedPeers(6, batch)
		seen := map[simnet.NodeID]bool{}
		for _, id := range got {
			if seen[id] {
				t.Fatalf("duplicate partner %d in %v", id, got)
			}
			seen[id] = true
		}
	}
}

func TestSemanticBiasCutsTrafficAtSparseInterest(t *testing.T) {
	// EXP-X2 in miniature. With many small interest camps, semantic
	// routing behaves like implicit topic grouping: events stop visiting
	// uninterested buffers, so total application traffic collapses while
	// delivery stays close — the "grouping according to semantic
	// knowledge" the paper's §5.2 closing paragraph suggests.
	run := func(bias float64) (delivered, appBytes uint64) {
		const n, camps = 128, 8
		c := NewShardedCluster(n, 1, Config{
			Mode:         ModeContent,
			Fanout:       2,
			Batch:        4,
			BufferMaxAge: 2,
			SemanticBias: bias,
		}, ClusterOptions{
			Seed:      4,
			NetConfig: simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)},
		})
		for i, nd := range c.Nodes {
			nd.Subscribe(pubsub.Topic([]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}[i%camps]))
		}
		c.RunRounds(15)
		for r := 0; r < 120; r++ {
			c.Node(r%n).Publish([]string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"}[r%camps],
				nil, make([]byte, 48))
			c.RunRounds(1)
		}
		c.RunRounds(10)
		for i := 0; i < n; i++ {
			a := c.Ledger.Account(i)
			delivered += a.Delivered
			appBytes += a.BytesSent[fairness.ClassApp]
		}
		return delivered, appBytes
	}
	uDel, uBytes := run(0)
	bDel, bBytes := run(0.75)
	if float64(bDel) < 0.9*float64(uDel) {
		t.Fatalf("biased delivery %d fell below 90%% of unbiased %d", bDel, uDel)
	}
	if float64(bBytes) > 0.5*float64(uBytes) {
		t.Fatalf("biased traffic %d not below half of unbiased %d", bBytes, uBytes)
	}
}

package core

import (
	"math/rand"
	"sync"
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/fairness"
	"fairgossip/internal/randutil"
	"fairgossip/internal/simnet"
)

// ShardedCluster partitions a FairGossip simulation across per-core
// shards. Each shard owns a contiguous, chunk-aligned slice of the node
// ids, its own eventsim kernel (independently seeded from (seed,
// shardID) via randutil.ShardSeed — shards never share a rand stream),
// its own simnet.Network, and its own envelope pool. Shards advance in
// lockstep windows of one RoundPeriod: within a window every shard runs
// its kernel concurrently; at the window barrier the engine goroutine
// merges cross-shard mailboxes and deferred audits in fixed shard
// order, then opens the next window.
//
// One shard is the same window loop with one kernel, one network and one
// pool: its mailboxes stay empty and every audit applies immediately, so
// each window is one RunUntil on the only kernel and the output is
// byte-identical to the single-threaded engine that predates sharding
// (the shard tests pin digests recorded from that engine).
//
// Determinism contract: a run is byte-identical per (seed, shardCount).
// Different shard counts are different (equally valid) executions —
// cross-shard messages are quantised to the next barrier, so the event
// interleaving legitimately depends on the partition.
//
// Concurrency model: during a window each shard goroutine touches only
// its own kernel, network, nodes, outboxes and audit list, plus the
// shared ledger — where every write lands on the writing node's own
// account except the novelty audit, which auditSink defers when the
// audited sender lives on another shard (otherwise the sender's
// controller would race the write mid-window and runs would diverge).
// Between windows only the engine goroutine runs; the WaitGroup barrier
// orders everything a shard wrote before everything the engine (and the
// next window's goroutines) read.
//
// All mutating methods (Join, Leave, Partition, Publish via Node, ...)
// must be called from the engine goroutine between windows.
type ShardedCluster struct {
	Ledger *fairness.Ledger
	Nodes  []*Node

	shards []*shard
	cfg    Config
	seed   int64
	per    int // ids per shard (shard i owns [i*per, min((i+1)*per, n)))
	now    time.Duration
}

// ClusterOptions bundles the environment knobs of a cluster.
type ClusterOptions struct {
	// Seed drives all randomness (simulator and per-node streams).
	Seed int64
	// NetConfig configures latency and loss (zero value: 1ms, lossless).
	NetConfig simnet.Config
	// Weights configures the fairness ledger (zero value: defaults).
	Weights fairness.Weights
}

// shard is one partition: a kernel, a full-width network whose remote
// slots are placeholders, and the window-local state the barrier drains.
type shard struct {
	sim     *eventsim.Sim
	net     *simnet.Network
	pool    *msgPool
	lo, hi  int            // owned id range [lo, hi)
	outbox  [][]pendingMsg // per destination shard, FIFO within a pair
	audits  []deferredAudit
	tickers []*eventsim.Ticker
}

// pendingMsg is a cross-shard message parked in a mailbox until the
// barrier: the source shard already charged the send, drew loss and
// latency from its own stream, and retained a pooled payload; at is the
// nominal delivery instant on the shared virtual clock. InjectAt coerces
// instants inside the closed window up to the barrier.
type pendingMsg struct {
	msg simnet.Message
	at  time.Duration
}

// deferredAudit is a novelty audit whose target account lives on another
// shard; it is applied at the barrier in fixed shard order.
type deferredAudit struct {
	from, useful, junk int
}

// shardSpan sizes the per-shard id range: an even split, with interior
// boundaries rounded up to the fairness ledger's chunk size when that
// still leaves every shard nonempty, so two shards' hot atomic writes
// never share a chunk. It is at least 1 even for an empty population,
// so shardOf can place nodes that Join later.
func shardSpan(n, shards int) int {
	per := max((n+shards-1)/shards, 1)
	if aligned := (per + fairness.ChunkSize - 1) / fairness.ChunkSize * fairness.ChunkSize; aligned*(shards-1) < n {
		return aligned
	}
	return per
}

// NewShardedCluster builds a stopped cluster of n nodes split across
// the given number of shards, clamped to [1, n] (and to 1 when n is 0).
// Call Start (or RunRounds, which starts lazily) to begin gossip rounds.
// Node RNG streams use the same (seed, id) derivation at every shard
// count.
func NewShardedCluster(n, shards int, cfg Config, opts ClusterOptions) *ShardedCluster {
	shards = max(min(shards, n), 1)
	cfg = cfg.withDefaults()
	ledger := fairness.NewLedger(n, opts.Weights)
	sc := &ShardedCluster{
		Ledger: ledger,
		Nodes:  make([]*Node, 0, n),
		cfg:    cfg,
		seed:   opts.Seed,
		per:    shardSpan(n, shards),
	}
	for s := 0; s < shards; s++ {
		sim := eventsim.New(randutil.ShardSeed(opts.Seed, s))
		sh := &shard{
			sim:    sim,
			net:    simnet.New(sim, opts.NetConfig),
			pool:   &msgPool{},
			lo:     s * sc.per,
			hi:     min((s+1)*sc.per, n),
			outbox: make([][]pendingMsg, shards),
		}
		sh.net.SetRemote(sc.remoteHook(sh))
		sc.shards = append(sc.shards, sh)
	}
	for i := 0; i < n; i++ {
		sc.addNode(i, n)
	}
	if cfg.Membership == MemberCyclon {
		// Bootstrap overlay views with random contacts (a join service in
		// a deployed system; free here, like handing out a seed-peer
		// list). One rng, nodes in global id order, so the initial
		// overlay is shard-count-blind.
		boot := rand.New(rand.NewSource(opts.Seed + 7))
		for _, nd := range sc.Nodes {
			k := cfg.ViewCap / 2
			if k < 3 {
				k = 3
			}
			ids := make([]simnet.NodeID, 0, k)
			for len(ids) < k && n > 1 {
				cand := simnet.NodeID(boot.Intn(n))
				if cand != nd.Self {
					ids = append(ids, cand)
				}
			}
			nd.bootstrapView(ids)
		}
	}
	return sc
}

// addNode constructs global node i on its owner shard and reserves a
// remote placeholder slot on every other shard, keeping NodeID == global
// id on all networks.
func (sc *ShardedCluster) addNode(i, n int) {
	owner := sc.shardOf(i)
	for s, sh := range sc.shards {
		if s != owner {
			sh.net.AddRemote()
			continue
		}
		rng := rand.New(rand.NewSource(sc.seed ^ int64(0x9e3779b9*uint32(i+1))))
		nd := newNode(simnet.NodeID(i), sh.net, sc.Ledger, sc.cfg, n, rng, sh.pool, sc.auditSink(sh))
		sh.net.AddNode(nd)
		sc.Nodes = append(sc.Nodes, nd)
	}
}

// shardOf maps a global id to its owner shard.
func (sc *ShardedCluster) shardOf(id int) int {
	if s := id / sc.per; s < len(sc.shards)-1 {
		return s
	}
	return len(sc.shards) - 1
}

// remoteHook parks cross-shard sends in the source shard's outbox.
func (sc *ShardedCluster) remoteHook(sh *shard) simnet.RemoteFunc {
	return func(msg simnet.Message, delay time.Duration) {
		d := sc.shardOf(int(msg.To))
		sh.outbox[d] = append(sh.outbox[d], pendingMsg{msg: msg, at: sh.sim.Now() + delay})
	}
}

// auditSink applies same-shard audits immediately and defers cross-shard
// ones to the barrier.
func (sc *ShardedCluster) auditSink(sh *shard) func(from, useful, junk int) {
	return func(from, useful, junk int) {
		if from >= sh.lo && from < sh.hi {
			sc.Ledger.AddAudit(from, useful, junk)
			return
		}
		sh.audits = append(sh.audits, deferredAudit{from: from, useful: useful, junk: junk})
	}
}

// Config returns the (defaulted) configuration.
func (sc *ShardedCluster) Config() Config { return sc.cfg }

// N returns the current population size.
func (sc *ShardedCluster) N() int { return len(sc.Nodes) }

// Shards returns the shard count (at least 1).
func (sc *ShardedCluster) Shards() int { return len(sc.shards) }

// Node returns the i-th node.
func (sc *ShardedCluster) Node(i int) *Node { return sc.Nodes[i] }

// Steps returns the number of kernel events fired so far, summed over
// the shards.
func (sc *ShardedCluster) Steps() uint64 {
	var steps uint64
	for _, sh := range sc.shards {
		steps += sh.sim.Steps()
	}
	return steps
}

// Start launches round tickers on every shard (per-node jittered, or one
// per shard under Config.BatchRounds). Idempotent.
func (sc *ShardedCluster) Start() {
	for _, sh := range sc.shards {
		if len(sh.tickers) > 0 {
			continue
		}
		if sc.cfg.BatchRounds {
			sh := sh
			sh.tickers = append(sh.tickers, sh.sim.Every(sc.cfg.RoundPeriod, sc.cfg.Jitter, func() {
				// Re-slice on every fire: Join extends the tail shard's hi.
				for _, nd := range sc.Nodes[sh.lo:sh.hi] {
					nd.Round()
				}
			}))
			continue
		}
		for _, nd := range sc.Nodes[sh.lo:sh.hi] {
			nd := nd
			sh.tickers = append(sh.tickers, sh.sim.Every(sc.cfg.RoundPeriod, sc.cfg.Jitter, nd.Round))
		}
	}
}

// Stop halts all round tickers; in-flight messages can still be drained
// with Drain.
func (sc *ShardedCluster) Stop() {
	for _, sh := range sc.shards {
		for _, t := range sh.tickers {
			t.Stop()
		}
		sh.tickers = nil
	}
}

// RunRounds advances virtual time by r round periods, starting the
// cluster if needed. Each round is one barrier window.
func (sc *ShardedCluster) RunRounds(r int) {
	sc.Start()
	for i := 0; i < r; i++ {
		sc.runWindow(sc.now + sc.cfg.RoundPeriod)
	}
}

// runWindow runs every shard's kernel concurrently up to deadline, then
// — back on the engine goroutine — merges mailboxes into destination
// kernels in fixed (destination, source) order and applies deferred
// audits in fixed shard order. Fixed merge order means fixed FIFO
// tie-break sequence numbers, which is what makes the whole execution a
// pure function of (seed, shardCount).
func (sc *ShardedCluster) runWindow(deadline time.Duration) {
	var wg sync.WaitGroup
	for _, sh := range sc.shards {
		wg.Add(1)
		go func(sh *shard) {
			defer wg.Done()
			sh.sim.RunUntil(deadline)
		}(sh)
	}
	wg.Wait()
	for d, dst := range sc.shards {
		for _, src := range sc.shards {
			box := src.outbox[d]
			for _, p := range box {
				dst.net.InjectAt(p.at, p.msg)
			}
			src.outbox[d] = box[:0]
		}
	}
	for _, sh := range sc.shards {
		for _, a := range sh.audits {
			sc.Ledger.AddAudit(a.from, a.useful, a.junk)
		}
		sh.audits = sh.audits[:0]
	}
	sc.now = deadline
}

// Drain settles all in-flight traffic after Stop: windows keep running
// until every kernel is idle and every mailbox is empty. With tickers
// stopped each cross-shard hop costs at most one extra window, so this
// terminates.
func (sc *ShardedCluster) Drain() {
	for {
		idle := true
		for _, sh := range sc.shards {
			if sh.sim.Pending() > 0 {
				idle = false
			}
			for _, box := range sh.outbox {
				if len(box) > 0 {
					idle = false
				}
			}
		}
		if idle {
			return
		}
		sc.runWindow(sc.now + sc.cfg.RoundPeriod)
	}
}

// Join boots a new node mid-run (engine goroutine, between windows),
// bootstrapped through seed. Under MemberCyclon the joiner starts with
// only the seed in its view and pays for a charged view-repair exchange
// (the same introduction a rejoining node buys); under MemberFull the
// idealised directory tells every node the new population size for
// free, the same way the initial roster was free. The joiner's round
// ticker starts immediately when the cluster is running. The id extends
// the tail shard's range, so existing ranges never move. Returns the new
// node's id.
func (sc *ShardedCluster) Join(seed simnet.NodeID) simnet.NodeID {
	n := len(sc.Nodes) + 1
	sc.Ledger.Grow(n)
	id := len(sc.Nodes)
	owner := sc.shardOf(id) // always the tail shard
	sc.addNode(id, n)
	sc.shards[owner].hi = id + 1
	nd := sc.Nodes[id]
	if sc.cfg.Membership == MemberCyclon {
		if seed >= 0 && int(seed) < id {
			nd.Cyclon.View().Add(seed)
			nd.send(seed, &wireMsg{Kind: kindViewRepair}, fairness.ClassInfra)
		}
	} else {
		for _, other := range sc.Nodes {
			other.SetPopulation(n)
		}
	}
	sh := sc.shards[owner]
	if len(sh.tickers) > 0 && !sc.cfg.BatchRounds {
		// The batched ticker re-slices the shard's range and already
		// covers the joiner; only the per-node schedule needs a ticker.
		sh.tickers = append(sh.tickers, sh.sim.Every(sc.cfg.RoundPeriod, sc.cfg.Jitter, nd.Round))
	}
	return simnet.NodeID(id)
}

// Leave departs node id gracefully (Node.LeaveGracefully): under Cyclon
// membership the leaver hands its freshest view entries to its
// neighbours before going offline; under the idealised full sampler it
// simply goes offline. The sim mirror of live.Cluster.Leave.
func (sc *ShardedCluster) Leave(id simnet.NodeID) {
	if id < 0 || int(id) >= len(sc.Nodes) {
		return
	}
	sc.Nodes[id].LeaveGracefully()
}

// Up reports whether node id is up (checked on its owner network).
func (sc *ShardedCluster) Up(id simnet.NodeID) bool {
	if id < 0 || int(id) >= len(sc.Nodes) {
		return false
	}
	return sc.shards[sc.shardOf(int(id))].net.Up(id)
}

// Partition splits every shard's network identically: delivery-time
// checks run on the destination's owner network, which therefore needs
// the full partition map regardless of where the sender lives.
func (sc *ShardedCluster) Partition(side []simnet.NodeID) {
	for _, sh := range sc.shards {
		sh.net.Partition(side)
	}
}

// Heal removes any partition on every shard.
func (sc *ShardedCluster) Heal() {
	for _, sh := range sc.shards {
		sh.net.Heal()
	}
}

// SetLoss sets the drop probability on every shard's network.
func (sc *ShardedCluster) SetLoss(p float64) {
	for _, sh := range sc.shards {
		sh.net.SetLoss(p)
	}
}

// SetLatency swaps the latency model on every shard's network.
func (sc *ShardedCluster) SetLatency(m simnet.LatencyModel) {
	for _, sh := range sc.shards {
		sh.net.SetLatency(m)
	}
}

// TotalTraffic sums the per-shard networks' counters. Each event is
// counted on exactly one network (sends and send-time drops on the
// source shard, receives and delivery-time drops on the destination
// shard), so the sum is the whole-population truth.
func (sc *ShardedCluster) TotalTraffic() simnet.Traffic {
	return sc.sumTraffic((*simnet.Network).TotalTraffic)
}

// Stats sums one node's traffic counters across shards (its owner shard
// holds almost everything; destination shards hold delivery-time drops
// charged back to it).
func (sc *ShardedCluster) Stats(id simnet.NodeID) simnet.Traffic {
	return sc.sumTraffic(func(net *simnet.Network) simnet.Traffic { return net.Stats(id) })
}

// sumTraffic adds up one counter set over every shard's network.
func (sc *ShardedCluster) sumTraffic(of func(*simnet.Network) simnet.Traffic) simnet.Traffic {
	var t simnet.Traffic
	for _, sh := range sc.shards {
		st := of(sh.net)
		t.MsgsSent += st.MsgsSent
		t.BytesSent += st.BytesSent
		t.MsgsRecv += st.MsgsRecv
		t.BytesRecv += st.BytesRecv
		t.Dropped += st.Dropped
	}
	return t
}

// Report computes the fairness report over the whole population.
func (sc *ShardedCluster) Report() fairness.Report { return sc.Ledger.Report() }

// DeliveredTotal sums deliveries across all nodes.
func (sc *ShardedCluster) DeliveredTotal() uint64 {
	var total uint64
	for i := range sc.Nodes {
		total += sc.Ledger.Account(i).Delivered
	}
	return total
}

// DeliveryRatio returns, for an event expected at `interested` many
// nodes, the fraction of them that delivered at least `minEach` events.
// Experiments use it as the reliability metric.
func (sc *ShardedCluster) DeliveryRatio(interested []int, minEach uint64) float64 {
	if len(interested) == 0 {
		return 1
	}
	ok := 0
	for _, id := range interested {
		if sc.Ledger.Account(id).Delivered >= minEach {
			ok++
		}
	}
	return float64(ok) / float64(len(interested))
}

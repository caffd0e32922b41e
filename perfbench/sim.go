package main

import (
	"runtime"
	"time"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/pubsub"
)

// simConfig is the protocol configuration of a sim workload that
// publishes pubs events. sim-huge mirrors fairbench's -huge tier: batched
// rounds, the idealised full sampler and small buffers. Its dedup memory
// is the one departure: the tier's 64 ids cover 8 rounds of 8
// publications, but an event circulates for 15 rounds and more (its p99
// delivery), so a node that has forgotten an id delivers the event again.
// The dedup memory holds every event of the run instead, as the delivered
// set of the paper's Fig. 4 does. sim-paper is the paper's setting: topic
// groups joined by walks, Cyclon membership, the AIMD controller and
// per-node jittered round tickers.
func simConfig(w spec, pubs int) core.Config {
	if w.Huge {
		return core.Config{
			Mode:        core.ModeContent,
			Membership:  core.MemberFull,
			Fanout:      3,
			Batch:       8,
			BufferCap:   32,
			SeenCap:     max(64, pubs),
			BatchRounds: true,
		}
	}
	return core.Config{
		Mode:       core.ModeTopics,
		Controller: core.ControllerSpec{Kind: core.ControllerAIMD, TargetRatio: 2000},
	}
}

// runSim runs one sim workload pass: the batch job of publication rounds
// and drain rounds, one RunRounds(1) window at a time.
func runSim(w spec, in *inputs, tr *tracer) (*pass, error) {
	p := &pass{}
	base := tr.timeBase()
	// round is the window being run; the delivery callbacks read it. The
	// engine writes it only between windows, which the cluster's barrier
	// orders before every shard goroutine of the next window.
	round := new(int64)
	var sc *core.ShardedCluster
	var rec *recorder
	for i := 0; i < w.SetupReps; i++ {
		sc, rec = nil, nil
		runtime.GC() // drop the previous build before timing the next
		start := time.Now()
		sc, rec = buildSim(w, in, round)
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	runtime.GC()

	rounds := in.events[len(in.events)-1].round + 1 + w.DrainRounds
	windowEnd := make([]time.Duration, rounds+1)
	p.attempts = len(in.events)
	p.pubCallUS = make([]float64, 0, len(in.events))
	var winWall, winCPU time.Duration

	before := sampleProc()
	led0 := ledgerTotals(sc.Ledger)
	next := 0
	for r := 0; r < rounds; r++ {
		for ; next < len(in.events) && in.events[next].round == r; next++ {
			ev := &in.events[next]
			start := time.Now()
			sc.Node(ev.pub).Publish(ev.topic, ev.attrs, ev.payload)
			end := time.Now()
			p.pubCallUS = append(p.pubCallUS, float64(end.Sub(start))/1e3)
			tr.publish(next, start.Sub(base), end.Sub(base))
		}
		*round = int64(r)
		ws, c0 := time.Now(), processCPU()
		sc.RunRounds(1)
		we, c1 := time.Now(), processCPU()
		windowEnd[r] = we.Sub(base)
		winWall += we.Sub(ws)
		winCPU += c1 - c0
		p.windowsMS = append(p.windowsMS, float64(we.Sub(ws))/1e6)
		tr.window(r, ws.Sub(base), we.Sub(base))
	}
	// In-flight messages still deliver after the tickers stop; they
	// count as delivered in one extra round.
	sc.Stop()
	*round = int64(rounds)
	sc.Drain()
	windowEnd[rounds] = time.Since(base)
	after := sampleProc()

	p.win = between(before, after)
	p.rounds = rounds
	p.ledger = fairness.Delta(ledgerTotals(sc.Ledger), led0)
	p.jain = sc.Report().RatioJain
	p.simnet = sc.TotalTraffic()
	if winWall > 0 {
		p.shardUtil = float64(winCPU) / (float64(winWall) * float64(w.Shards))
	}
	p.rec = rec
	p.verdict = rec.check()

	hist := make([]int, rounds+2) // deliveries by whole rounds of latency
	for s := range rec.slots {
		for _, d := range rec.slots[s].dl {
			hist[int(d.at)-in.events[d.ev].round+1]++
			tr.deliver(int(d.ev), s, windowEnd[d.at])
		}
	}
	// Wall-clock figures use a typical round, the mean of the middle half
	// of the windows: a round the machine stalled in would otherwise
	// stretch every event in flight.
	roundMS := midMean(append([]float64(nil), p.windowsMS...))
	p.e2e = e2e{
		p50rounds: roundQuantile(hist, 0.5),
		p99rounds: roundQuantile(hist, 0.99),
		cpuUS:     float64(p.win.cpu) / 1e3 / p.deliveries(),
		perSec:    float64(p.verdict.deliveries) / (float64(rounds) * roundMS / 1e3),
	}
	p.e2e.p50ms = p.e2e.p50rounds * roundMS
	p.e2e.p99ms = p.e2e.p99rounds * roundMS
	return p, nil
}

// buildSim is the measured set-up: build the cluster, subscribe every
// node and, for topic groups, run the warm-up rounds in which the
// subscription walks complete.
func buildSim(w spec, in *inputs, round *int64) (*core.ShardedCluster, *recorder) {
	sc := core.NewShardedCluster(w.Nodes, w.Shards, simConfig(w, len(in.events)), core.ClusterOptions{Seed: in.seed})
	rec := newRecorder(in)
	for id, nd := range sc.Nodes {
		for _, f := range in.subs[id].filter {
			nd.Subscribe(f)
		}
		id := id
		nd.OnDeliver = func(e *pubsub.Event) { rec.deliver(id, e, *round) }
	}
	if w.WarmupRounds > 0 {
		sc.RunRounds(w.WarmupRounds)
	}
	return sc, rec
}

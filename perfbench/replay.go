package main

import (
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// The layer replay times each layer's public functions on inputs taken
// from the run — captured envelopes, the run's event ids, its filters
// and events, shuffle payloads — after the run has ended, so the
// numbers are each layer's own cost, free of the scheduling noise of
// the full system.

// replayBudget is the time one replay measurement runs for.
const replayBudget = 150 * time.Millisecond

// opCost is a replayed function's cost per call.
type opCost struct {
	ns, allocs, bytes float64
}

// measure calls op with i = 0, 1, 2, ... until replayBudget has passed
// and returns the cost per call.
func measure(op func(i int)) opCost {
	op(0) // warm caches and lazily grown scratch
	n := 16
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if d >= replayBudget || n >= 1<<28 {
			return opCost{
				ns:     float64(d) / float64(n),
				allocs: float64(m1.Mallocs-m0.Mallocs) / float64(n),
				bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
			}
		}
		grow := 100.0
		if d > 0 {
			grow = min(grow, 1.2*float64(replayBudget)/float64(d))
		}
		n = int(float64(n)*grow) + 1
	}
}

// measureParallel runs op on `writers` goroutines at once, each with its
// own index stream, and returns wall time per call per goroutine.
func measureParallel(writers int, op func(w, i int)) float64 {
	n := 1 << 16
	for {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					op(w, i)
				}
			}(w)
		}
		wg.Wait()
		d := time.Since(start)
		if d >= replayBudget || n >= 1<<28 {
			return float64(d) / float64(n)
		}
		n *= 4
	}
}

// replayInputs is what a traced run hands the replay.
type replayInputs struct {
	w         spec
	envelopes [][]byte         // live: captured encoded envelopes
	events    []*pubsub.Event  // the run's events as the program sees them
	ids       []pubsub.EventID // the id stream a receiver's SeenSet sees
	subs      []interest
	offers    [][]membership.Entry // Cyclon shuffle offers
	seed      int64

	seenCap, bufCap, bufAge, batch, viewCap, shuffleLen int
	occupancy                                           int // events a buffer holds when SelectInto runs
	heapDepth                                           int // sim: pending kernel events per shard
	nodesPerShard                                       int
}

// layerCosts is the replayed cost of every layer function on the
// workload's path; layers off the path stay zero.
type layerCosts struct {
	decode, encode, seenAdd, sel, match, shuffle opCost
	add1, add2                                   float64 // ns per AddSend, one and two writers
	schedStep, sendDeliver                       opCost
}

func replay(ri *replayInputs) layerCosts {
	var lc layerCosts
	rng := rand.New(rand.NewSource(ri.seed))
	if len(ri.envelopes) > 0 {
		lc.decode, lc.encode = replayWire(ri.envelopes)
	}
	lc.seenAdd = replaySeen(ri)
	lc.sel = replaySelect(ri, rng)
	lc.match = replayMatch(ri)
	if len(ri.offers) > 0 {
		lc.shuffle = replayShuffle(ri, rng)
	}
	lc.add1, lc.add2 = replayLedger(ri.w.population())
	if ri.w.Sim {
		lc.schedStep, lc.sendDeliver = replayKernel(ri, rng)
	}
	return lc
}

func replayWire(envs [][]byte) (decode, encode opCost) {
	var env wire.Envelope
	k := len(envs)
	decode = measure(func(i int) { _ = wire.DecodeEnvelope(envs[i%k], &env) })

	// Encode re-encodes each envelope's decoded contents with the same
	// encoder the sender used.
	type msg struct {
		kind    byte
		sender  uint32
		events  []*pubsub.Event
		entries []wire.ViewEntry
	}
	msgs := make([]msg, 0, k)
	for _, b := range envs {
		var e wire.Envelope
		if wire.DecodeEnvelope(b, &e) != nil {
			continue
		}
		msgs = append(msgs, msg{kind: e.Kind, sender: e.Sender, events: e.Events, entries: e.Entries})
	}
	buf := make([]byte, 0, 64<<10)
	encode = measure(func(i int) {
		m := &msgs[i%len(msgs)]
		if m.kind == wire.KindEvents {
			buf, _ = wire.AppendEnvelope(buf[:0], m.sender, m.events)
		} else {
			buf, _ = wire.AppendMembership(buf[:0], m.kind, m.sender, m.entries)
		}
	})
	return decode, encode
}

// replaySeen feeds the id stream through a SeenSet of the program's
// capacity. Each pass over the stream shifts the sequence numbers, so
// every pass meets novel ids and duplicates in the run's proportions.
func replaySeen(ri *replayInputs) opCost {
	ids := ri.ids
	k := len(ids)
	var span uint32
	for _, id := range ids {
		span = max(span, id.Seq)
	}
	s := gossip.NewSeenSet(ri.seenCap)
	return measure(func(i int) {
		id := ids[i%k]
		id.Seq += uint32(i/k) * (span + 1)
		s.Add(id)
	})
}

// replaySelect runs SELECTEVENTS over a buffer filled to the run's
// occupancy, its entries spread over every age.
func replaySelect(ri *replayInputs, rng *rand.Rand) opCost {
	b := gossip.NewBuffer(ri.bufCap, ri.bufAge)
	occ := min(ri.occupancy, ri.bufCap)
	perTick := max(1, occ/ri.bufAge)
	for i := 0; i < occ; i++ {
		ev := *ri.events[i%len(ri.events)]
		ev.ID.Seq += uint32(i/len(ri.events)) << 20
		b.Insert(&ev)
		if (i+1)%perTick == 0 && b.Len() < occ {
			b.Tick()
		}
	}
	var scratch []*pubsub.Event
	return measure(func(int) { b.SelectInto(rng, &scratch, ri.batch, gossip.PolicyRandom) })
}

// replayMatch evaluates subscribers' interests over the run's events.
func replayMatch(ri *replayInputs) opCost {
	subs := ri.subs
	if len(subs) > 256 {
		subs = subs[:256]
	}
	ins := make([]pubsub.Interest, len(subs))
	for i := range subs {
		for _, f := range subs[i].filter {
			ins[i].Subscribe(f)
		}
	}
	evs := ri.events
	return measure(func(i int) { ins[i%len(ins)].Match(evs[(i*7919)%len(evs)]) })
}

// replayShuffle answers the run's shuffle offers with a full view.
func replayShuffle(ri *replayInputs, rng *rand.Rand) opCost {
	pop := ri.w.population()
	c := membership.NewCyclon(membership.NewView(0, ri.viewCap), ri.shuffleLen)
	for c.View().Len() < min(ri.viewCap, pop-1) {
		c.View().Add(simnet.NodeID(1 + rng.Intn(pop-1)))
	}
	return measure(func(i int) {
		c.HandleShuffle(rng, simnet.NodeID(1+i%(pop-1)), ri.offers[i%len(ri.offers)])
	})
}

// replayLedger times Ledger.AddSend with one writer and with two
// writing disjoint account ranges at once (two shards, or two peers).
func replayLedger(n int) (one, two float64) {
	l := fairness.NewLedger(n, fairness.DefaultWeights())
	one = measure(func(i int) { l.AddSend(i%n, fairness.ClassApp, 100) }).ns
	half := max(1, n/2)
	two = measureParallel(2, func(w, i int) { l.AddSend(min(n-1, w*half+i%half), fairness.ClassApp, 100) })
	return one, two
}

type nopSink struct{}

func (nopSink) HandleSimMsg(eventsim.Msg)        {}
func (nopSink) HandleMessage(msg simnet.Message) {}

// replayKernel times the simulator at the run's heap depth: a schedule
// plus a step on a kernel holding heapDepth pending events, and a
// simnet send plus the step that delivers it.
func replayKernel(ri *replayInputs, rng *rand.Rand) (schedStep, sendDeliver opCost) {
	const spread = 100 * time.Millisecond // one round of virtual time
	s := eventsim.New(ri.seed)
	var sink nopSink
	for i := 0; i < ri.heapDepth; i++ {
		s.ScheduleMsg(time.Duration(rng.Int63n(int64(spread))), sink, eventsim.Msg{Size: 64})
	}
	delays := make([]time.Duration, 4096)
	for i := range delays {
		delays[i] = time.Duration(rng.Int63n(int64(spread)))
	}
	schedStep = measure(func(i int) {
		s.ScheduleMsg(delays[i%len(delays)], sink, eventsim.Msg{Size: 64})
		s.Step()
	})

	s = eventsim.New(ri.seed)
	net := simnet.New(s, simnet.Config{})
	nodes := max(2, ri.nodesPerShard)
	for i := 0; i < nodes; i++ {
		net.AddNode(sink)
	}
	for i := 0; i < ri.heapDepth; i++ {
		net.Send(simnet.NodeID(rng.Intn(nodes)), simnet.NodeID(rng.Intn(nodes)), nil, 64)
	}
	sendDeliver = measure(func(i int) {
		net.Send(simnet.NodeID(i%nodes), simnet.NodeID((i*7919+1)%nodes), nil, 64)
		s.Step()
	})
	return schedStep, sendDeliver
}

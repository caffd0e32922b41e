package main

import (
	"fmt"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/live"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/transport"
)

// liveRound is the gossip period of the live workloads (the live
// runtime's default).
const liveRound = 20 * time.Millisecond

// liveDrain is how long a live run keeps measuring after the last
// publication is due: 25 rounds, several times the slowest deliveries
// seen, so a delivery still missing then counts as missed. The window
// has the same length whether or not every delivery arrived.
const liveDrain = 25 * liveRound

// runLive runs one live workload pass. probe, when non-nil, wraps the
// transport factory (tracing, capture, fault injection in tests).
func runLive(w spec, in *inputs, probe *netProbe, tr *tracer) (*pass, error) {
	p := &pass{}
	base := tr.timeBase()
	var c *live.Cluster
	var rec *recorder
	for i := 0; i < w.SetupReps; i++ {
		if c != nil {
			c.Stop()
		}
		start := time.Now()
		var err error
		c, rec, err = buildLive(w, in, probe, base)
		if err != nil {
			return nil, err
		}
		p.setup = append(p.setup, time.Since(start).Seconds())
	}
	defer c.Stop()

	// Let the freshly started peers run two rounds before the first
	// publication is due.
	t0 := time.Now().Add(2 * liveRound)
	time.Sleep(time.Until(t0))
	interval := time.Duration(float64(time.Second) / w.Rate)
	before := sampleProc()
	led0 := ledgerTotals(c.Ledger())

	p.attempts = len(in.events)
	p.lateMS = make([]float64, 0, len(in.events))
	p.pubCallUS = make([]float64, 0, len(in.events))
	dueNS := make([]int64, len(in.events))
	perSlice := max(1, int(liveSlice/interval))
	var sliceCPU []time.Duration // process CPU when each slice's first publication is due
	for i := range in.events {
		ev := &in.events[i]
		due := t0.Add(time.Duration(i) * interval)
		dueNS[i] = due.Sub(base).Nanoseconds()
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if i%perSlice == 0 {
			sliceCPU = append(sliceCPU, processCPU())
		}
		start := time.Now()
		ok := c.Publish(ev.pub, ev.topic, ev.attrs, ev.payload)
		end := time.Now()
		if !ok {
			p.failed++
		}
		p.lateMS = append(p.lateMS, float64(start.Sub(due))/1e6)
		p.pubCallUS = append(p.pubCallUS, float64(end.Sub(start))/1e3)
		tr.publish(i, start.Sub(base), end.Sub(base))
	}
	time.Sleep(time.Until(t0.Add(time.Duration(len(in.events))*interval + liveDrain)))
	after := sampleProc()
	sliceCPU = append(sliceCPU, after.cpu)
	p.win = between(before, after)
	p.ledger = fairness.Delta(ledgerTotals(c.Ledger()), led0)
	p.jain = c.Report().RatioJain
	c.Stop()
	p.traffic = c.Traffic()

	p.rec = rec
	p.verdict = rec.check()
	if t := p.traffic; t.Sent != t.Recv+t.Dropped {
		p.verdict.problems = append(p.verdict.problems,
			fmt.Sprintf("traffic not conserved after Stop: sent %d != recv %d + dropped %d", t.Sent, t.Recv, t.Dropped))
	}
	slices := len(sliceCPU) - 1
	lat := make([][]float64, slices)
	for s := range rec.slots {
		for _, d := range rec.slots[s].dl {
			k := int(d.ev) / perSlice
			lat[k] = append(lat[k], float64(d.at-dueNS[d.ev])/1e6)
			tr.deliver(int(d.ev), s, time.Duration(d.at))
		}
	}
	var p50, p99, cpu []float64
	for k := range lat {
		if len(lat[k]) == 0 {
			continue
		}
		p50 = append(p50, quantile(lat[k], 0.5))
		p99 = append(p99, quantile(lat[k], 0.99))
		cpu = append(cpu, float64(sliceCPU[k+1]-sliceCPU[k])/1e3/float64(len(lat[k])))
	}
	p.e2e = e2e{
		p50ms:  midMean(p50),
		p99ms:  midMean(p99),
		cpuUS:  midMean(cpu),
		perSec: float64(p.verdict.deliveries) / p.win.wall.Seconds(),
	}
	p.e2e.p50rounds = p.e2e.p50ms / ms(liveRound)
	p.e2e.p99rounds = p.e2e.p99ms / ms(liveRound)
	return p, nil
}

// buildLive is the measured set-up: build the cluster, subscribe every
// peer, install the delivery callbacks, start.
func buildLive(w spec, in *inputs, probe *netProbe, base time.Time) (*live.Cluster, *recorder, error) {
	factory := transport.Chan()
	if w.UDP {
		factory = transport.UDP()
	}
	if probe != nil {
		factory = probe.wrap(factory)
	}
	c, err := live.NewCluster(live.Config{
		N:           w.Peers,
		Batch:       w.Batch,
		RoundPeriod: liveRound,
		Seed:        in.seed,
		Transport:   factory,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("build live cluster: %w", err)
	}
	rec := newRecorder(in)
	for id := range in.subs {
		for _, f := range in.subs[id].filter {
			c.Subscribe(id, f)
		}
		id := id
		c.OnDeliver(id, func(e *pubsub.Event) {
			rec.deliver(id, e, time.Since(base).Nanoseconds())
		})
	}
	c.Start()
	return c, rec, nil
}

// ledgerTotals sums every account of a ledger.
func ledgerTotals(l *fairness.Ledger) fairness.Account {
	var t fairness.Account
	for _, a := range l.Snapshot() {
		for k := range t.MsgsSent {
			t.MsgsSent[k] += a.MsgsSent[k]
			t.BytesSent[k] += a.BytesSent[k]
		}
		t.Published += a.Published
		t.PublishedBytes += a.PublishedBytes
		t.Delivered += a.Delivered
		t.UsefulBytes += a.UsefulBytes
		t.JunkBytes += a.JunkBytes
	}
	return t
}

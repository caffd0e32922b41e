package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fairgossip/internal/core"
	"fairgossip/internal/fairness"
	"fairgossip/internal/live"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one invocation of the benchmark.
type options struct {
	w        spec
	seed     int64
	seconds  float64
	trace    bool
	traceDir string // where a traced run writes its spans ("" to skip)
	// mutate, when set, rewrites every envelope a live peer sends
	// (tests use it to corrupt deliveries).
	mutate func([]byte) []byte
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the measured run")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory a traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	env := collectEnv(".")
	envLine, _ := json.Marshal(map[string]environment{"env": env})
	fmt.Fprintln(stdout, string(envLine))

	res, err := execute(options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric and its unit. The lists below are the ones
// BENCHMARK.json declares; a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliver_p50_ms", "ms"},
	{"deliver_p99_ms", "ms"},
	{"deliver_p50_rounds", "rounds"},
	{"deliver_p99_rounds", "rounds"},
	{"delivered_frac", "fraction"},
	{"cpu_us_per_delivery", "us"},
	{"deliveries_per_s", "1/s"},
	{"bytes_per_delivery", "B"},
	{"ratio_jain", "index"},
	{"max_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"live.publish_call_p99_us", "us"},
	{"live.inbox_drops", "count"},
	{"live.envelopes_per_delivery", "count"},
	{"transport.send_ns", "ns"},
	{"transport.send_p99_us", "us"},
	{"transport.hop_p99_us", "us"},
	{"transport.drops", "count"},
	{"transport.envelope_bytes_p50", "B"},
	{"wire.decode_ns_op", "ns"},
	{"wire.decode_allocs_op", "count"},
	{"wire.decode_b_op", "B"},
	{"wire.encode_ns_op", "ns"},
	{"gossip.dup_frac", "fraction"},
	{"gossip.seen_add_ns_op", "ns"},
	{"gossip.select_ns_op", "ns"},
	{"pubsub.match_ns_op", "ns"},
	{"membership.infra_bytes_frac", "fraction"},
	{"membership.shuffle_ns_op", "ns"},
	{"fairness.add_ns_op", "ns"},
	{"fairness.add_2w_ns_op", "ns"},
	{"eventsim.schedule_step_ns_op", "ns"},
	{"simnet.send_deliver_ns_op", "ns"},
	{"simnet.msgs_per_round", "count"},
	{"core.rounds_per_s", "1/s"},
	{"core.window_p50_ms", "ms"},
	{"core.window_p99_ms", "ms"},
	{"core.shard_util", "fraction"},
	{"proc.gc_cpu_frac", "fraction"},
	{"proc.alloc_bytes_per_delivery", "B"},
	{"proc.unexplained_cpu_frac", "fraction"},
	{"gen.late_p99_ms", "ms"},
	{"trace.cpu_overhead_frac", "fraction"},
}

// pass is what one run of a workload produced, untraced or traced.
type pass struct {
	setup    []float64 // seconds per build
	win      window    // the measured window, first publication to end of drain
	rec      *recorder
	verdict  verdict
	attempts int
	failed   int

	e2e       e2e       // the pass's end-to-end figures
	pubCallUS []float64 // wall time of each Publish call, µs
	lateMS    []float64 // live: how late each publication was issued, ms

	ledger  fairness.Account // the ledger totals accrued inside the window
	jain    float64
	traffic live.Traffic   // live: envelope counters after Stop
	simnet  simnet.Traffic // sim: simulated network totals

	rounds    int       // sim: rounds run in the window, drain included
	windowsMS []float64 // sim: wall time of each RunRounds(1)
	shardUtil float64   // sim: process CPU ÷ (window wall × shards)
}

// e2e holds a pass's latency, CPU and throughput figures.
type e2e struct {
	p50ms, p99ms         float64
	p50rounds, p99rounds float64
	cpuUS                float64 // CPU µs per delivery
	perSec               float64 // deliveries per second
}

// liveSlice is the length of the slices a live window is cut into: the
// latency quantiles and CPU per delivery are computed per slice of
// publications, and the mean of the middle half of the slices is
// reported, so a short stall of the machine moves one slice, not the
// result.
const liveSlice = time.Second

// execute runs the workload once untraced and, for a traced invocation,
// once more traced, then reports the end-to-end or the per-layer
// metrics. Progress and the sample counts go to log.
func execute(o options, log io.Writer) (*result, error) {
	if o.trace {
		o.w.SetupReps = 1 // a traced run does not report setup_s
	}
	in := generate(o.w, o.seed, o.seconds)
	var probe *netProbe
	if o.mutate != nil {
		probe = newProbe(nil)
		probe.mutate = o.mutate
	}
	p0, err := runPass(o.w, in, probe, nil)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	res.add(p0, log, o.w.Name+" untraced")
	if !o.trace {
		res.Metrics = endToEndMetrics(p0)
		return res, nil
	}

	tr := newTracer(len(in.events))
	probe = newProbe(tr)
	p1, err := runPass(o.w, in, probe, tr)
	if err != nil {
		return nil, err
	}
	res.add(p1, log, o.w.Name+" traced")
	ts := probe.finish()
	ri := replayInputsFor(o.w, in, probe, p1)
	lc := replay(ri)
	res.Metrics = perLayerMetrics(o.w, in, p0, p1, probe, ts, lc)
	if o.traceDir != "" {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.w.Name, o.seed))
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(log, "trace: %d spans (%d dropped) in %s\n", len(tr.spans), tr.dropped, path)
	}
	return res, nil
}

func runPass(w spec, in *inputs, probe *netProbe, tr *tracer) (*pass, error) {
	if w.Sim {
		return runSim(w, in, tr)
	}
	return runLive(w, in, probe, tr)
}

// add folds one pass's outcome into the result and logs it.
func (r *result) add(p *pass, log io.Writer, label string) {
	r.Attempted += p.attempts
	r.Failed += p.failed
	v := &p.verdict
	if !v.ok() {
		r.Correct = false
	}
	fmt.Fprintf(log, "%s: %d publications (%d failed), %d/%d deliveries in %.2fs wall, %.2fs CPU\n",
		label, p.attempts, p.failed, v.deliveries, v.expected, p.win.wall.Seconds(), p.win.cpu.Seconds())
	for _, msg := range v.problems {
		fmt.Fprintf(log, "%s: CHECK FAILED: %s\n", label, msg)
	}
}

func (p *pass) deliveries() float64 { return float64(max(1, p.verdict.deliveries)) }

func chargedBytes(a fairness.Account) float64 {
	return float64(a.BytesSent[fairness.ClassApp] + a.BytesSent[fairness.ClassInfra])
}

func endToEndMetrics(p *pass) map[string]metric {
	return withUnits(endToEnd, map[string]float64{
		"setup_s":             median(p.setup),
		"deliver_p50_ms":      p.e2e.p50ms,
		"deliver_p99_ms":      p.e2e.p99ms,
		"deliver_p50_rounds":  p.e2e.p50rounds,
		"deliver_p99_rounds":  p.e2e.p99rounds,
		"delivered_frac":      float64(p.verdict.deliveries) / float64(max(1, p.verdict.expected)),
		"cpu_us_per_delivery": p.e2e.cpuUS,
		"deliveries_per_s":    p.e2e.perSec,
		"bytes_per_delivery":  chargedBytes(p.ledger) / p.deliveries(),
		"ratio_jain":          p.jain,
		"max_rss_mb":          maxRSSMB(),
	})
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// withUnits attaches units to values; every declared metric is
// reported, a layer the workload does not use as 0.
func withUnits(defs []metricDef, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// meanEventSize is the mean encoded size of the run's events, which
// turns the ledger's audited byte counts into event counts.
func meanEventSize(in *inputs) float64 {
	total := 0
	for i := range in.events {
		total += programEvent(in, i).WireSize()
	}
	return float64(total) / float64(len(in.events))
}

// programEvent is event i as the program carries it.
func programEvent(in *inputs, i int) *pubsub.Event {
	ev := &in.events[i]
	return &pubsub.Event{
		ID:      pubsub.EventID{Publisher: uint32(ev.pub), Seq: ev.seq},
		Topic:   ev.topic,
		Attrs:   ev.attrs,
		Payload: ev.payload,
	}
}

// replayInputsFor gathers the traced run's inputs for the layer replay.
func replayInputsFor(w spec, in *inputs, probe *netProbe, p *pass) *replayInputs {
	ri := &replayInputs{w: w, subs: in.subs, seed: in.seed}
	for i := range in.events {
		ri.events = append(ri.events, programEvent(in, i))
	}
	switch {
	case !w.Sim:
		ri.seenCap, ri.bufCap, ri.bufAge, ri.batch = 8192, 256, 8, w.Batch
		ri.viewCap, ri.shuffleLen = 16, 8
		ri.occupancy = int(w.Rate * liveRound.Seconds() * float64(ri.bufAge))
		ri.envelopes = probe.captured
		for _, b := range probe.captured {
			var env wire.Envelope
			if wire.DecodeEnvelope(b, &env) != nil {
				continue
			}
			switch env.Kind {
			case wire.KindEvents:
				for _, e := range env.Events {
					ri.ids = append(ri.ids, e.ID)
				}
			case wire.KindShuffleOffer:
				offer := make([]membership.Entry, len(env.Entries))
				for i, e := range env.Entries {
					offer[i] = membership.Entry{ID: simnet.NodeID(e.ID), Age: int(e.Age)}
				}
				ri.offers = append(ri.offers, offer)
			}
		}
	default:
		cfg := simConfig(w, len(in.events))
		ri.seenCap, ri.bufCap, ri.bufAge, ri.batch = 8192, 256, 8, 8
		if cfg.SeenCap > 0 {
			ri.seenCap, ri.bufCap = cfg.SeenCap, cfg.BufferCap
		}
		ri.viewCap, ri.shuffleLen = 16, 8
		ri.occupancy = w.PubsPerRound * ri.bufAge
		// A node meets each event again in later rounds while it is
		// still being gossiped: each id is followed by the ones
		// published in the rounds just before it.
		window := w.PubsPerRound * 2
		for i := range ri.events {
			for j := max(0, i-window); j <= i; j++ {
				ri.ids = append(ri.ids, ri.events[j].ID)
			}
		}
		if cfg.Membership != core.MemberFull {
			rng := rand.New(rand.NewSource(in.seed))
			for k := 0; k < 256; k++ {
				offer := make([]membership.Entry, ri.shuffleLen)
				for i := range offer {
					offer[i] = membership.Entry{ID: simnet.NodeID(rng.Intn(w.Nodes)), Age: rng.Intn(8)}
				}
				ri.offers = append(ri.offers, offer)
			}
		}
		shards := max(1, w.Shards)
		ri.nodesPerShard = w.Nodes / shards
		msgsPerRound := int(p.simnet.MsgsSent) / max(1, p.rounds)
		tickers := ri.nodesPerShard
		if cfg.BatchRounds {
			tickers = 1
		}
		ri.heapDepth = tickers + msgsPerRound/shards
	}
	if len(ri.ids) == 0 {
		for _, e := range ri.events {
			ri.ids = append(ri.ids, e.ID)
		}
	}
	return ri
}

func perLayerMetrics(w spec, in *inputs, p0, p1 *pass, probe *netProbe, ts transportStats, lc layerCosts) map[string]metric {
	d1 := p1.deliveries()
	audited := float64(p1.ledger.UsefulBytes + p1.ledger.JunkBytes)
	v := map[string]float64{
		"gossip.seen_add_ns_op":         lc.seenAdd.ns,
		"gossip.select_ns_op":           lc.sel.ns,
		"pubsub.match_ns_op":            lc.match.ns,
		"membership.shuffle_ns_op":      lc.shuffle.ns,
		"fairness.add_ns_op":            lc.add1,
		"fairness.add_2w_ns_op":         lc.add2,
		"proc.gc_cpu_frac":              p0.win.gcCPU / max(1e-9, p0.win.usedCPU),
		"proc.alloc_bytes_per_delivery": float64(p0.win.allocB) / p0.deliveries(),
		"trace.cpu_overhead_frac":       p1.e2e.cpuUS/p0.e2e.cpuUS - 1,
	}
	if audited > 0 {
		v["gossip.dup_frac"] = float64(p1.ledger.JunkBytes) / audited
	}
	if b := chargedBytes(p1.ledger); b > 0 {
		v["membership.infra_bytes_frac"] = float64(p1.ledger.BytesSent[fairness.ClassInfra]) / b
	}

	// Calls each layer made in the traced run, as seen from outside.
	evSize := meanEventSize(in)
	received := audited / evSize                     // event records received
	novel := float64(p1.ledger.UsefulBytes) / evSize // events matched on first receipt
	if !w.Sim {
		received = float64(ts.events)
	}
	var rounds float64 // node-rounds of SELECTEVENTS
	budget := lc.seenAdd.ns*received + lc.match.ns*(novel+float64(len(in.events)))
	if w.Sim {
		rounds = float64(w.Nodes * p1.rounds)
		t := p1.simnet
		tickerFires := rounds
		if simConfig(w, len(in.events)).BatchRounds {
			tickerFires = float64(max(1, w.Shards) * p1.rounds)
		}
		budget += lc.sendDeliver.ns*float64(t.MsgsSent) + lc.schedStep.ns*tickerFires
		budget += lc.add1 * float64(t.MsgsSent+t.MsgsRecv+uint64(p1.verdict.deliveries))
		if lc.shuffle.ns > 0 {
			budget += lc.shuffle.ns * rounds / 4 // core's default ShuffleEvery
		}
		v["eventsim.schedule_step_ns_op"] = lc.schedStep.ns
		v["simnet.send_deliver_ns_op"] = lc.sendDeliver.ns
		v["simnet.msgs_per_round"] = float64(t.MsgsSent) / float64(max(1, p1.rounds))
		v["core.rounds_per_s"] = 1e3 / midMean(append([]float64(nil), p1.windowsMS...))
		v["core.window_p50_ms"] = quantile(p1.windowsMS, 0.5)
		v["core.window_p99_ms"] = quantile(p1.windowsMS, 0.99)
		v["core.shard_util"] = p1.shardUtil
	} else {
		t := p1.traffic
		rounds = float64(w.Peers) * p1.win.wall.Seconds() / liveRound.Seconds()
		sendMedian := median(ts.sendNS)
		budget += lc.decode.ns*float64(t.Recv) + lc.encode.ns*float64(probe.encodes.Load())
		budget += sendMedian * float64(ts.sends)
		budget += lc.add1 * (float64(t.Sent+t.Recv) + d1)
		budget += lc.shuffle.ns * float64(ts.offers)
		v["live.publish_call_p99_us"] = quantile(p1.pubCallUS, 0.99)
		v["live.inbox_drops"] = float64(t.InboxDrops)
		v["live.envelopes_per_delivery"] = float64(t.Sent) / d1
		v["transport.send_ns"] = sendMedian
		v["transport.send_p99_us"] = quantile(ts.sendNS, 0.99) / 1e3
		v["transport.hop_p99_us"] = quantile(ts.hopNS, 0.99) / 1e3
		v["transport.drops"] = float64(probe.sendErrs.Load())
		v["transport.envelope_bytes_p50"] = quantile(ts.sizes, 0.5)
		v["wire.decode_ns_op"] = lc.decode.ns
		v["wire.decode_allocs_op"] = lc.decode.allocs
		v["wire.decode_b_op"] = lc.decode.bytes
		v["wire.encode_ns_op"] = lc.encode.ns
		v["gen.late_p99_ms"] = quantile(p0.lateMS, 0.99)
	}
	budget += lc.sel.ns * rounds
	v["proc.unexplained_cpu_frac"] = 1 - budget/float64(p0.win.cpu)
	return withUnits(perLayer, v)
}

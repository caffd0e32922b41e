package main

import (
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"fairgossip/internal/wire"
)

// small shrinks a workload to test size, keeping its shape.
func small(t *testing.T, name string) spec {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	w.SetupReps = 1
	switch {
	case w.Huge:
		w.Nodes, w.PubsPerRound, w.DrainRounds = 2000, 4, 6
	case w.Sim:
		w.Nodes, w.WarmupRounds, w.DrainRounds = 300, 5, 6
	default:
		w.Peers, w.Rate = 8, 100
	}
	return w
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		w := small(t, w.Name)
		t.Run(w.Name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := execute(options{w: w, seed: 7, seconds: 1, trace: traced, traceDir: t.TempDir()}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Fatalf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Fatalf("traced=%v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			}
		})
	}
}

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
		Why  string `json:"why"`
	}
	var b struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the command has %q", i, b.Workloads[i].Name, w.Name)
		}
	}
}

// flipPayload re-encodes an event envelope with one payload byte of its
// first event flipped.
func flipPayload(buf []byte) []byte {
	var env wire.Envelope
	if wire.DecodeEnvelope(buf, &env) != nil || env.Kind != wire.KindEvents || len(env.Events) == 0 {
		return buf
	}
	ev := *env.Events[0]
	if len(ev.Payload) == 0 {
		return buf
	}
	ev.Payload = append([]byte(nil), ev.Payload...)
	ev.Payload[0] ^= 0xff
	env.Events[0] = &ev
	out, err := wire.AppendEnvelope(nil, env.Sender, env.Events)
	if err != nil {
		return buf
	}
	return out
}

func TestIntegrityCheckCatchesFlippedPayload(t *testing.T) {
	var log strings.Builder
	res, err := execute(options{w: small(t, "live-chan-content"), seed: 3, seconds: 1, mutate: flipPayload}, &log)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatalf("a transport flipping payload bytes passed the integrity check:\n%s", log.String())
	}
	if !strings.Contains(log.String(), "differ from the published bytes") {
		t.Fatalf("failure does not name the corrupted deliveries:\n%s", log.String())
	}
}

func TestSimSameSeedSameDeliveries(t *testing.T) {
	for _, name := range []string{"sim-paper", "sim-huge"} {
		w := small(t, name)
		t.Run(name, func(t *testing.T) {
			var runs [2]*pass
			for i := range runs {
				p, err := runSim(w, generate(w, 11, 1), nil)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = p
			}
			a, b := runs[0], runs[1]
			if a.ledger != b.ledger || a.simnet != b.simnet {
				t.Fatalf("same seed, different bytes: ledger %+v vs %+v, traffic %+v vs %+v", a.ledger, b.ledger, a.simnet, b.simnet)
			}
			if a.verdict.deliveries == 0 || a.verdict.deliveries != b.verdict.deliveries {
				t.Fatalf("same seed, deliveries %d vs %d", a.verdict.deliveries, b.verdict.deliveries)
			}
			for s := range a.rec.slots {
				da, db := a.rec.slots[s].dl, b.rec.slots[s].dl
				if len(da) != len(db) {
					t.Fatalf("subscriber %d: %d vs %d deliveries", s, len(da), len(db))
				}
				for i := range da {
					if da[i] != db[i] {
						t.Fatalf("subscriber %d delivery %d: %+v vs %+v", s, i, da[i], db[i])
					}
				}
			}
		})
	}
}

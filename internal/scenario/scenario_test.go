package scenario

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestBuiltinsOnSim runs every built-in scenario against the
// deterministic simulated runtime; all invariants must pass.
func TestBuiltinsOnSim(t *testing.T) {
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Execute(NewSimRuntime(sc, 1), sc, 1)
			if !res.Ok() {
				t.Fatalf("invariant violations:\n%s", res.String())
			}
			if res.Published == 0 || res.Deliveries == 0 {
				t.Fatalf("degenerate run:\n%s", res.String())
			}
		})
	}
}

// TestBuiltinsOnLive runs the same seeded schedules against the
// goroutine-per-peer runtime — the differential half: a runtime-specific
// bug (a lost delivery, a leaked message, a broken fault hook) surfaces
// as an invariant violation on one runtime but not the other.
func TestBuiltinsOnLive(t *testing.T) {
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			res := Execute(NewLiveRuntime(sc, 1), sc, 1)
			if !res.Ok() {
				t.Fatalf("invariant violations:\n%s", res.String())
			}
			if res.Published == 0 || res.Deliveries == 0 {
				t.Fatalf("degenerate run:\n%s", res.String())
			}
		})
	}
}

// TestBuiltinsOnLiveUDP is the third differential column: the same
// seeded schedules over real loopback datagram sockets — encode on
// send, decode on receive, one socket per peer. A codec bug, a socket
// lifecycle bug, or an accounting leak that the in-process transport
// hides surfaces here as an invariant violation (including the
// tightened drop-conservation: every datagram is received or counted
// dropped).
func TestBuiltinsOnLiveUDP(t *testing.T) {
	for _, sc := range Builtins() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			rt, err := NewLiveUDPRuntime(sc, 1)
			if err != nil {
				t.Fatalf("udp runtime: %v", err)
			}
			res := Execute(rt, sc, 1)
			if !res.Ok() {
				t.Fatalf("invariant violations:\n%s", res.String())
			}
			if res.Published == 0 || res.Deliveries == 0 {
				t.Fatalf("degenerate run:\n%s", res.String())
			}
			if !res.HasTraffic || res.Sent == 0 {
				t.Fatalf("udp runtime exposed no traffic counters:\n%s", res.String())
			}
		})
	}
}

// TestLiveTrafficCountersBalance: the live runtime now participates in
// drop conservation — the counters exist, flow, and balance exactly on
// the chan transport (the storm scenario forces inbox pressure and
// injected loss, so the drop buckets are not vacuous).
func TestLiveTrafficCountersBalance(t *testing.T) {
	sc, _ := ByName("storm")
	res := Execute(NewLiveRuntime(sc, 2), sc, 2)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if !res.HasTraffic {
		t.Fatal("live runtime exposed no traffic counters")
	}
	if res.Sent == 0 || res.Dropped == 0 {
		t.Fatalf("storm produced no counted traffic/drops: sent %d dropped %d", res.Sent, res.Dropped)
	}
	if res.Sent != res.Recv+res.Dropped {
		t.Fatalf("traffic leak: sent %d != recv %d + dropped %d", res.Sent, res.Recv, res.Dropped)
	}
}

// TestSimDeterminism: on the simulated runtime the same seed must yield
// identical invariant metrics, bit for bit — the property fixed-seed
// regression baselines (and reproducible bug reports) rest on.
func TestSimDeterminism(t *testing.T) {
	for _, name := range []string{"calm", "storm", "sub-churn", "join-wave", "graceful-drain", "crash-storm-recover", "shaped-wan", "regional-outage", "mobile-rebind", "intermittent-links"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("missing builtin %q", name)
		}
		a := Execute(NewSimRuntime(sc, 42), sc, 42)
		b := Execute(NewSimRuntime(sc, 42), sc, 42)
		if a.String() != b.String() {
			t.Errorf("%s not deterministic:\n--- run 1\n%s--- run 2\n%s", name, a.String(), b.String())
		}
		c := Execute(NewSimRuntime(sc, 43), sc, 43)
		if a.String() == c.String() {
			t.Errorf("%s ignored its seed: seeds 42 and 43 produced identical results", name)
		}
	}
}

// TestEligibilityExcludesCrashed: a peer that crashes before an event is
// published must not be counted eligible, and a peer that crashes while
// the event is pending is released.
func TestEligibilityExcludesCrashed(t *testing.T) {
	sc := Scenario{
		Name:   "crash-eligibility",
		N:      16,
		Rounds: 10,
		Steps: []Step{
			{Round: 2, Action: CrashFrac(0.5)},
		},
	}
	res := Execute(NewSimRuntime(sc, 7), sc, 7)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	// With half the population down, eligible pairs must be well below
	// the no-fault expectation but delivery over survivors stays total.
	if res.DeliveryRatio != 1 {
		t.Errorf("survivor delivery ratio %v, want 1", res.DeliveryRatio)
	}
}

// TestFreeRidersDoNotForward: with every peer but the publisher
// free-riding, events must still self-deliver but cannot spread — the
// engine's eligibility model stays sound either way.
func TestFreeRiderStillReceives(t *testing.T) {
	sc := Scenario{
		Name:   "free-rider-receives",
		N:      16,
		Rounds: 12,
		Steps: []Step{
			{Round: 0, Action: FreeRiderFrac(0.5)},
		},
	}
	res := Execute(NewSimRuntime(sc, 9), sc, 9)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.DeliveryRatio != 1 {
		t.Errorf("delivery ratio %v with free-riders, want 1 (they still receive)", res.DeliveryRatio)
	}
}

// TestJoinWaveGrowsPopulation: the join-wave builtin must actually
// grow the cluster, the joiners must subscribe and deliver, and the
// invariants (including ledger conservation over the grown population)
// must hold on the deterministic runtime.
func TestJoinWaveGrowsPopulation(t *testing.T) {
	sc, ok := ByName("join-wave")
	if !ok {
		t.Fatal("join-wave builtin missing")
	}
	var joined int
	var joinerDelivered bool
	testInspect = func(r *Run) {
		joined = len(r.up) - sc.N
		for id := sc.N; id < len(r.up); id++ {
			for _, evID := range r.evOrder {
				rec := r.events[evID]
				if id < len(rec.delivered) && rec.delivered[id] {
					joinerDelivered = true
				}
			}
		}
	}
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 11), sc, 11)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if joined != 8 {
		t.Fatalf("%d peers joined, want 8", joined)
	}
	if !joinerDelivered {
		t.Fatal("no joiner ever delivered an event")
	}
}

// TestJoinerEligibilityGrace: events published before a joiner's grace
// expires never require it, events published after do — the fault-aware
// eligibility rule for joiners.
func TestJoinerEligibilityGrace(t *testing.T) {
	sc := Scenario{
		Name:      "join-grace",
		N:         16,
		Rounds:    20,
		JoinGrace: 4,
		Topics:    1, // every peer subscribes the one topic: eligibility is total
		MaxSubs:   1,
		Steps: []Step{
			{Round: 6, Action: JoinNodes(2)},
		},
	}
	checked := false
	testInspect = func(r *Run) {
		for _, evID := range r.evOrder {
			rec := r.events[evID]
			for id := 16; id < 18; id++ {
				covered := id < len(rec.eligible) && rec.eligible[id]
				if rec.round < 6+4 && covered {
					t.Errorf("joiner %d eligible for round-%d event inside its grace", id, rec.round)
				}
				if rec.round >= 6+4 && !covered {
					t.Errorf("joiner %d not eligible for round-%d event after its grace", id, rec.round)
				}
				if rec.round >= 6+4 {
					checked = true
				}
			}
		}
	}
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 13), sc, 13)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if !checked {
		t.Fatal("no post-grace event was published — the test checked nothing")
	}
}

// TestJoinDuringAdversity: joins racing crash waves and loss must keep
// every invariant sound (joiners picked through up seeds only; a
// joiner that is itself crashed later is released like anyone else).
func TestJoinDuringAdversity(t *testing.T) {
	sc := Scenario{
		Name:        "join-storm",
		N:           20,
		Rounds:      30,
		MinDelivery: 0.97,
		Steps: []Step{
			{Round: 4, Action: Loss(0.05)},
			{Round: 6, Action: CrashFrac(0.25)},
			{Round: 8, Action: JoinNodes(5)},
			{Round: 14, Action: RejoinAll()},
			{Round: 16, Action: JoinNodes(3)},
			{Round: 20, Action: CrashFrac(0.2)},
			{Round: 24, Action: Loss(0)},
		},
	}
	res := Execute(NewSimRuntime(sc, 17), sc, 17)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Published == 0 || res.Deliveries == 0 {
		t.Fatalf("degenerate run:\n%s", res.String())
	}
}

// TestJoinDuringPartition: joiners arriving mid-split must be seeded
// from the zero side (where joiners land on every runtime) — a
// cross-side seed could never answer the handshake and the joiner
// would be demanded deliveries it provably cannot receive. Runs on
// both the deterministic and the live runtime.
func TestJoinDuringPartition(t *testing.T) {
	// MinDelivery leaves slack for the hardest stochastic pair (an event
	// published at the heal round racing a mid-split joiner's overlay
	// integration) while staying far above what a stranded joiner would
	// score: missing all of its ~dozen demanded pairs lands near 0.96.
	sc := Scenario{
		Name:        "join-under-split",
		N:           24,
		Rounds:      28,
		MinDelivery: 0.98,
		Steps: []Step{
			{Round: 4, Action: SplitRandomHalf()},
			{Round: 8, Action: JoinNodes(3)},
			{Round: 18, Action: HealAll()},
		},
	}
	for _, build := range []func() Runtime{
		func() Runtime { return NewSimRuntime(sc, 19) },
		func() Runtime { return NewLiveRuntime(sc, 19) },
	} {
		res := Execute(build(), sc, 19)
		if !res.Ok() {
			t.Fatalf("%s violations:\n%s", res.Runtime, res.String())
		}
		if res.Published == 0 || res.Deliveries == 0 {
			t.Fatalf("degenerate run:\n%s", res.String())
		}
	}
}

// TestDropConservationSeesPartitionDrops: the partition scenario must
// actually drop traffic on the sim network (otherwise the conservation
// invariant is vacuous).
func TestDropConservationSeesPartitionDrops(t *testing.T) {
	sc, _ := ByName("partition-heal")
	res := Execute(NewSimRuntime(sc, 3), sc, 3)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if !res.HasTraffic || res.Dropped == 0 {
		t.Fatalf("partition scenario dropped nothing:\n%s", res.String())
	}
}

// TestSampleDistinctCapsAtCandidates: over-asking returns what exists
// instead of rejection-sampling forever, so a repeated CrashFrac cannot
// hang a run.
func TestSampleDistinctCapsAtCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	down := map[int]bool{0: true, 1: true, 2: true}
	got := SampleDistinct(rng, 5, 5, func(id int) bool { return down[id] })
	if len(got) != 2 {
		t.Fatalf("got %v, want the 2 drawable candidates", got)
	}
	if out := SampleDistinct(rng, 4, 9, nil); len(out) != 4 {
		t.Fatalf("k>n returned %v, want all 4", out)
	}
	if out := SampleDistinct(rng, 3, 2, func(int) bool { return true }); out != nil {
		t.Fatalf("all-skipped returned %v, want nil", out)
	}
	// Back-to-back over-crashing terminates and keeps invariants sound.
	sc := Scenario{
		Name:   "over-crash",
		N:      16,
		Rounds: 12,
		Steps: []Step{
			{Round: 2, Action: CrashFrac(0.6)},
			{Round: 4, Action: CrashFrac(0.6)},
		},
	}
	res := Execute(NewSimRuntime(sc, 5), sc, 5)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
}

// TestResultStringMentionsViolations: a failing invariant must surface
// in the rendered result (the CLI prints it).
func TestResultStringMentionsViolations(t *testing.T) {
	res := &Result{Scenario: "x", Runtime: "sim", Violations: []string{"eventual-delivery: boom"}}
	if res.Ok() || !strings.Contains(res.String(), "VIOLATION") {
		t.Fatalf("violation not rendered:\n%s", res.String())
	}
}

// TestByNameAndNames: the table lookup agrees with the table.
func TestByNameAndNames(t *testing.T) {
	names := Names()
	if len(names) < 8 {
		t.Fatalf("only %d built-in scenarios, want ≥ 8", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate scenario name %q", n)
		}
		seen[n] = true
		if _, ok := ByName(n); !ok {
			t.Fatalf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
	// The required adversity axes are all covered.
	for _, want := range []string{"calm", "churn-waves", "partition-heal", "lossy", "flash-crowd", "sub-churn", "free-riders", "storm", "join-wave"} {
		if !seen[want] {
			t.Errorf("missing required builtin %q", want)
		}
	}
}

// TestGracefulDrainScrubsViews: the graceful-drain builtin on the live
// runtime must actually take peers down via Leave, and the settle phase
// must observe both clean views (no live view holding a leaver's
// address) and recovered delivery inside their budgets — the recorded
// rounds are what the invariants judge.
func TestGracefulDrainScrubsViews(t *testing.T) {
	sc, ok := ByName("graceful-drain")
	if !ok {
		t.Fatal("graceful-drain builtin missing")
	}
	var left int
	var recoveredAt, hygieneAt, lastFault int
	testInspect = func(r *Run) {
		for _, d := range r.everDown {
			if d {
				left++
			}
		}
		recoveredAt, hygieneAt, lastFault = r.recoveredAt, r.hygieneAt, r.lastFault
	}
	defer func() { testInspect = nil }()
	res := Execute(NewLiveRuntime(sc, 3), sc, 3)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if want := 2 * 5; left != want { // two LeaveFrac(0.15) waves over N=32
		t.Errorf("%d peers left, want %d", left, want)
	}
	if lastFault != 16 {
		t.Errorf("lastFault %d, want 16 (the second leave wave)", lastFault)
	}
	if recoveredAt < 0 || hygieneAt < 0 {
		t.Fatalf("settle never observed recovery (%d) / hygiene (%d)", recoveredAt, hygieneAt)
	}
	if hygieneAt-lastFault > sc.withDefaults().HygieneRounds {
		t.Errorf("hygiene at round %d exceeds budget from fault round %d", hygieneAt, lastFault)
	}
}

// TestCrashStormRecoveryBounded: crash-storm-recover on the
// deterministic runtime — the settle phase must record recovery inside
// the c·N budget measured from the last fault action. (View hygiene is
// vacuous on the sim column: the idealised sampler has no views.)
func TestCrashStormRecoveryBounded(t *testing.T) {
	sc, ok := ByName("crash-storm-recover")
	if !ok {
		t.Fatal("crash-storm-recover builtin missing")
	}
	var recoveredAt, lastFault int
	testInspect = func(r *Run) { recoveredAt, lastFault = r.recoveredAt, r.lastFault }
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 5), sc, 5)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if lastFault != 14 {
		t.Errorf("lastFault %d, want 14 (the loss-clearing step)", lastFault)
	}
	budget := int(sc.withDefaults().RecoveryC*float64(sc.withDefaults().N) + 0.5)
	if recoveredAt < 0 || recoveredAt-lastFault > budget {
		t.Errorf("recovery at round %d violates budget %d from fault round %d", recoveredAt, budget, lastFault)
	}
}

// TestLeaveReleasesEligibility: a graceful leaver is released from
// pending eligibility exactly like a crash victim — survivors keep full
// delivery and the engine never requires the departed to deliver.
func TestLeaveReleasesEligibility(t *testing.T) {
	sc := Scenario{
		Name:   "leave-eligibility",
		N:      16,
		Rounds: 12,
		Steps: []Step{
			{Round: 3, Action: LeaveFrac(0.25)},
		},
	}
	res := Execute(NewSimRuntime(sc, 13), sc, 13)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.DeliveryRatio != 1 {
		t.Errorf("survivor delivery ratio %v after graceful leaves, want 1", res.DeliveryRatio)
	}
}

// TestShapedColumnCountsShaperDrops: the shaped-wan builtin on a live
// column carries real shaper loss — those drops must land in the counted
// bucket so conservation holds exactly, not approximately.
func TestShapedColumnCountsShaperDrops(t *testing.T) {
	sc, ok := ByName("shaped-wan")
	if !ok {
		t.Fatal("shaped-wan builtin missing")
	}
	res := Execute(NewLiveRuntime(sc, 9), sc, 9)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if !res.HasTraffic || res.Dropped == 0 {
		t.Fatalf("2%% shaper loss dropped nothing counted:\n%s", res.String())
	}
	if res.Sent != res.Recv+res.Dropped {
		t.Fatalf("shaped traffic leak: sent %d != recv %d + dropped %d", res.Sent, res.Recv, res.Dropped)
	}
}

// TestRegionalOutageReleasesEligibility: during the outage the engine
// must model the cut exactly like a partition — cross-boundary pairs
// released, intra-region delivery still required — and the runtime's
// correlated loss must be counted. Verified on the deterministic column.
func TestRegionalOutageReleasesEligibility(t *testing.T) {
	sc := Scenario{
		Name:    "outage-release",
		N:       16,
		Regions: 4,
		Rounds:  16,
		Steps: []Step{
			{Round: 4, Action: RegionalOutage(2)},
			{Round: 10, Action: RegionalHeal()},
		},
	}
	testInspect = func(r *Run) {
		// After the heal the model must be reconnected again.
		if r.split {
			t.Error("run ended still split")
		}
	}
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 11), sc, 11)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if res.Dropped == 0 {
		t.Fatalf("outage dropped nothing:\n%s", res.String())
	}
	// Cross-boundary pairs of mid-outage events were released: with 2
	// publishes per round for 6 outage rounds there must be fewer
	// eligible pairs than a calm run of the same shape would produce.
	calm := sc
	calm.Name = "outage-release-calm"
	calm.Steps = nil
	calmRes := Execute(NewSimRuntime(calm, 11), calm, 11)
	if !calmRes.Ok() {
		t.Fatalf("calm control violations:\n%s", calmRes.String())
	}
	if res.EligiblePairs >= calmRes.EligiblePairs {
		t.Fatalf("outage released nothing: %d eligible pairs vs calm %d", res.EligiblePairs, calmRes.EligiblePairs)
	}
}

// TestShapePresets: the -shape vocabulary resolves, and unknown names
// are refused.
func TestShapePresets(t *testing.T) {
	for _, name := range ShapePresetNames() {
		sp, ok := ShapePreset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if name == "none" && sp != nil {
			t.Fatal("preset none returned a profile")
		}
		if name != "none" && sp.inert() {
			t.Fatalf("preset %q is inert", name)
		}
	}
	if _, ok := ShapePreset("marsnet"); ok {
		t.Fatal("unknown preset accepted")
	}
}

// TestShardedSimCalmStorm runs the calm and storm builtins on the
// sharded sim column: every invariant must hold at every shard count,
// and runs must be deterministic per (seed, shards). The CI race job
// runs this sweep under -race — with the engine split across real
// goroutines, any unsynchronised cross-shard access surfaces here.
func TestShardedSimCalmStorm(t *testing.T) {
	for _, name := range []string{"calm", "storm"} {
		for _, shards := range []int{2, 4} {
			sc, ok := ByName(name)
			if !ok {
				t.Fatalf("missing builtin %q", name)
			}
			sc.Shards = shards
			t.Run(sc.Name+"-shards", func(t *testing.T) {
				a := Execute(NewSimRuntime(sc, 42), sc, 42)
				if !a.Ok() {
					t.Fatalf("shards=%d invariant violations:\n%s", shards, a.String())
				}
				if a.Published == 0 || a.Deliveries == 0 {
					t.Fatalf("shards=%d degenerate run:\n%s", shards, a.String())
				}
				b := Execute(NewSimRuntime(sc, 42), sc, 42)
				if a.String() != b.String() {
					t.Fatalf("shards=%d not deterministic:\n--- run 1\n%s--- run 2\n%s", shards, a.String(), b.String())
				}
			})
		}
	}
}

// stormLegacyDigest is the SHA-256 of the storm scenario's result text
// at seed 42, recorded on the single-threaded engine that predates
// sharding. TestOneShardStormReproducesLegacy: the default one-shard sim
// column runs the same window loop as N shards and must still produce
// that text byte for byte.
const stormLegacyDigest = "db3ccd914b4232ded508274df33c39c8134138b57aab22617924cc63a81f031a"

func TestOneShardStormReproducesLegacy(t *testing.T) {
	sc, _ := ByName("storm")
	res := Execute(NewSimRuntime(sc, 42), sc, 42).String()
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res))); got != stormLegacyDigest {
		t.Fatalf("Shards=1 diverged from the legacy column: digest %s, want %s\n%s", got, stormLegacyDigest, res)
	}
}

// TestResubscribeKeepsRedrawnTopics: a node that draws a topic it
// already holds keeps that subscription instead of dropping and
// re-adding it. On the live runtimes the drop/re-add pair is two
// separate calls into the peer, and an event arriving between them was
// marked seen but never delivered while the model still held the node
// eligible — a spurious eventual-delivery miss in sub-churn.
func TestResubscribeKeepsRedrawnTopics(t *testing.T) {
	sc := Scenario{
		Name:    "resubscribe-same-topic",
		N:       12,
		Rounds:  8,
		Topics:  1, // every draw is the one topic
		MaxSubs: 1,
		Steps: []Step{
			{Round: 3, Action: Action{Name: "resubscribe all", Do: func(r *Run) {
				for id := 0; id < r.N(); id++ {
					r.Resubscribe(id)
				}
			}}},
		},
	}
	inspected := false
	testInspect = func(r *Run) {
		inspected = true
		for id, subs := range r.subs {
			if len(subs) != 1 || subs[0].to != -1 || subs[0].from != -1 {
				t.Errorf("node %d: subscriptions %+v, want the warm-up one still active", id, subs)
			}
		}
	}
	defer func() { testInspect = nil }()
	res := Execute(NewSimRuntime(sc, 12), sc, 12)
	if !res.Ok() {
		t.Fatalf("violations:\n%s", res.String())
	}
	if !inspected {
		t.Fatal("inspection hook never ran")
	}
}

// simColumnDigests are the SHA-256 digests of every builtin's sim-column
// result text at seed 42. TestSimColumnDigests pins them so a change to
// the protocol core that shifts one RNG draw, one delivery or one
// counter on any builtin fails here, not only on storm.
var simColumnDigests = map[string]string{
	"calm":                "e406f89aaf4281b7cdd7b91b425f21060e1121ae4bf25e0ab36b219224738efa",
	"churn-waves":         "35eaeab40ba62485ea3d4e1282b8d263e46cadb3bfcd403028203df935d08d02",
	"partition-heal":      "09d595a23de64f1b110fab983e22b4c05fd97de3903347b5c678a356eaba6f72",
	"lossy":               "2b927c2fd3389fcf592ee28db764de6fdd174c950b21b404416c0245908b28d5",
	"flash-crowd":         "7d0a61b9361dc45d59eccd77c0d380288d38cc7203a20fdee9e7b4eaac0bf367",
	"sub-churn":           "5566bc5aeaa418888e9bebccfe6c39f42da5733172daba3d341fe7d068dc5456",
	"free-riders":         "b3112ec183f8b037adfb929460f3bfcbaedc07246a0866a5681265b0375672b3",
	"storm":               "db3ccd914b4232ded508274df33c39c8134138b57aab22617924cc63a81f031a",
	"join-wave":           "1716e5469b383aabc7502da524c9857bc654511ef36c3903c8cb87f4da349618",
	"graceful-drain":      "4fa9f27e32506988a1990c1e1ca7c850a228106285e6f04cc271c4687a6ec534",
	"crash-storm-recover": "1cd1d585dd78f55e0c87b7c4c87e5519e2983e9d42260cb1e309e897bd689338",
	"shaped-wan":          "d38453c2adcb7799669f3b751d3995c1a730f5e1014f1bcea905f85eb1d03d95",
	"regional-outage":     "1aa1148b7f6749e183fcee752d6b5a651f4bae2ba7f198f1cafab2ef9c295ca3",
	"mobile-rebind":       "2528f20ce8e38f57a10fab29d27bfa7af002cfcf78f25f48d48c8a60b2d0c9b0",
	"intermittent-links":  "3a248e84e1c20e89e9142050d245f3afc0d32c2cbecddf821288a5a582dec53d",
	"rage-quit":           "389b5ce491bf6512c9e80656dbd4b7ab030c8b3c148272f28efa8b85eeb08eb9",
	"aimd-fair":           "abc309def85be7dbb2ece826cf4f63d1faa45724e49ce9041e180ccbcf6c6eac",
}

func TestSimColumnDigests(t *testing.T) {
	builtins := Builtins()
	if len(builtins) != len(simColumnDigests) {
		t.Fatalf("%d builtins, %d pinned digests: pin every builtin", len(builtins), len(simColumnDigests))
	}
	for _, sc := range builtins {
		want, ok := simColumnDigests[sc.Name]
		if !ok {
			t.Errorf("%s: no pinned digest", sc.Name)
			continue
		}
		res := Execute(NewSimRuntime(sc, 42), sc, 42).String()
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res))); got != want {
			t.Errorf("%s: sim column diverged: digest %s, want %s\n%s", sc.Name, got, want, res)
		}
	}
}

package proto

import (
	"bytes"
	"math/rand"
	"testing"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// newPeer is peer 0 of a 16-process ledger, partnering over a Cyclon
// view of peers 1..8, with static levers F=3, N=4.
func newPeer(seed int64) *Peer {
	view := membership.NewView(0, 8)
	for id := simnet.NodeID(1); id <= 8; id++ {
		view.Add(id)
	}
	return &Peer{
		Self:          0,
		Rng:           rand.New(rand.NewSource(seed)),
		Ledger:        fairness.NewLedger(16, fairness.DefaultWeights()),
		Seen:          gossip.NewSeenSet(64),
		Buffer:        gossip.NewBuffer(64, 2),
		Cyclon:        membership.NewCyclon(view, 4),
		Ctrl:          adaptive.Static{F: 3, N: 4},
		Policy:        gossip.PolicyRandom,
		ControlWindow: 5,
	}
}

func event(pub uint32, seq int) *pubsub.Event {
	return &pubsub.Event{
		ID:      pubsub.EventID{Publisher: pub, Seq: uint32(seq)},
		Topic:   "t",
		Attrs:   []pubsub.Attr{{Key: "n", Val: pubsub.Num(float64(seq))}},
		Payload: bytes.Repeat([]byte{byte(seq)}, seq),
	}
}

// fakeRecords is a Records batch that counts how often each record is
// built.
type fakeRecords struct {
	events []*pubsub.Event
	built  []int
}

func (f *fakeRecords) Records() int                  { return len(f.events) }
func (f *fakeRecords) RecordID(i int) pubsub.EventID { return f.events[i].ID }
func (f *fakeRecords) RecordSize(i int) int          { return f.events[i].WireSize() }
func (f *fakeRecords) Record(i int) *pubsub.Event {
	f.built[i]++
	return f.events[i]
}

// TestReceiveBuildsOnlyNovelRecords: records the peer has seen are
// never built, novel ones are built once, buffered and delivered, and
// the returned split is the summed record sizes of each side.
func TestReceiveBuildsOnlyNovelRecords(t *testing.T) {
	p := newPeer(1)
	p.Subscribe(pubsub.MatchAll())
	var delivered []pubsub.EventID
	p.OnDeliver = func(ev *pubsub.Event) { delivered = append(delivered, ev.ID) }
	recs := &fakeRecords{built: make([]int, 8)}
	for i := 0; i < 8; i++ {
		recs.events = append(recs.events, event(3, i+1))
	}
	wantNovel, wantDup := 0, 0
	for i, ev := range recs.events {
		if i%3 == 0 {
			p.Seen.Add(ev.ID)
			wantDup += ev.WireSize()
		} else {
			wantNovel += ev.WireSize()
		}
	}
	novel, dup := p.Receive(recs, p.Buffer)
	if novel != wantNovel || dup != wantDup {
		t.Fatalf("split %d/%d, want %d/%d", novel, dup, wantNovel, wantDup)
	}
	for i, n := range recs.built {
		want := 1
		if i%3 == 0 {
			want = 0
		}
		if n != want {
			t.Fatalf("record %d built %d times, want %d", i, n, want)
		}
		if got := p.Buffer.Contains(recs.events[i].ID); got != (want == 1) {
			t.Fatalf("record %d buffered = %v", i, got)
		}
	}
	if len(delivered) != 5 {
		t.Fatalf("delivered %v, want the 5 novel events", delivered)
	}
	// The same batch again is all duplicates: nothing is built.
	if novel, dup := p.Receive(recs, nil); novel != 0 || dup != wantNovel+wantDup {
		t.Fatalf("repeat split %d/%d, want 0/%d", novel, dup, wantNovel+wantDup)
	}
	for i, n := range recs.built {
		if n > 1 {
			t.Fatalf("record %d built again on the repeat", i)
		}
	}
}

// outbox records every Push.
type outbox struct{ pushes [][]simnet.NodeID }

func (o *outbox) Push(to []simnet.NodeID, events []*pubsub.Event) {
	o.pushes = append(o.pushes, append([]simnet.NodeID(nil), to...))
}

// TestDisseminateFreeRiderOnlyAges: a free-rider's round pushes nothing
// and draws nothing, but its buffer still ages out; an honest round
// pushes once, to F distinct partners.
func TestDisseminateFreeRiderOnlyAges(t *testing.T) {
	p := newPeer(2)
	p.Buffer.Insert(event(0, 1))
	ref := rand.New(rand.NewSource(2))
	var out outbox
	p.Disseminate(&out, true)
	p.Disseminate(&out, true)
	if len(out.pushes) != 0 {
		t.Fatalf("a free-rider pushed %v", out.pushes)
	}
	if p.Buffer.Len() != 0 {
		t.Fatal("the free-rider's buffer did not age out")
	}
	if p.Rng.Int63() != ref.Int63() {
		t.Fatal("a free-rider's round drew from the RNG")
	}

	p.Buffer.Insert(event(0, 2))
	p.Disseminate(&out, false)
	if len(out.pushes) != 1 || len(out.pushes[0]) != p.Fanout() {
		t.Fatalf("honest round pushed %v, want one push to %d partners", out.pushes, p.Fanout())
	}
}

// TestPublishChargesAndDeliversOnce: publishing charges one publication
// of the event's size and delivers it locally exactly once; the event
// is marked seen (a copy gossiped back is a duplicate) but buffering is
// the caller's.
func TestPublishChargesAndDeliversOnce(t *testing.T) {
	p := newPeer(3)
	p.Subscribe(pubsub.MatchAll())
	delivered := 0
	p.OnDeliver = func(*pubsub.Event) { delivered++ }
	ev := p.Publish("t", nil, []byte("x"))
	if ev.ID != (pubsub.EventID{Publisher: 0, Seq: 1}) {
		t.Fatalf("first event id %v", ev.ID)
	}
	acct := p.Ledger.Account(0)
	if acct.Published != 1 || acct.PublishedBytes != uint64(ev.WireSize()) {
		t.Fatalf("published %d events / %d bytes, want 1 / %d", acct.Published, acct.PublishedBytes, ev.WireSize())
	}
	if delivered != 1 || acct.Delivered != 1 {
		t.Fatalf("delivered %d (ledger %d), want 1", delivered, acct.Delivered)
	}
	if !p.Seen.Contains(ev.ID) || p.Buffer.Contains(ev.ID) {
		t.Fatal("a published event must be seen and left for the caller to buffer")
	}
	if next := p.Publish("t", nil, nil); next.ID.Seq != 2 {
		t.Fatalf("second event seq %d, want 2", next.ID.Seq)
	}
}

// recordingCtrl returns levers it is told and records every sample.
type recordingCtrl struct {
	adaptive.Static
	samples []adaptive.Sample
}

func (r *recordingCtrl) Update(s adaptive.Sample) (int, int) {
	r.samples = append(r.samples, s)
	r.F, r.N = r.F+1, r.N+2
	return r.F, r.N
}

// TestAdaptMovesLeversFromLedgerDelta: each update feeds the controller
// the benefit and contribution recorded since the previous update, not
// the running totals, and the peer's levers follow the controller.
func TestAdaptMovesLeversFromLedgerDelta(t *testing.T) {
	p := newPeer(4)
	ctrl := &recordingCtrl{Static: adaptive.Static{F: 3, N: 4}}
	p.Ctrl = ctrl
	w := p.Ledger.Weights()

	p.Ledger.AddSend(0, fairness.ClassApp, 1000)
	p.Ledger.AddDelivery(0)
	first := p.Ledger.Account(0)
	p.Adapt()
	p.Ledger.AddSend(0, fairness.ClassApp, 300)
	p.Ledger.AddDelivery(0)
	p.Ledger.AddDelivery(0)
	delta := fairness.Delta(p.Ledger.Account(0), first)
	p.Adapt()

	if len(ctrl.samples) != 2 {
		t.Fatalf("%d controller updates, want 2", len(ctrl.samples))
	}
	if got, want := ctrl.samples[0], (adaptive.Sample{Benefit: fairness.Benefit(first, w), Contribution: fairness.Contribution(first, w)}); got != want {
		t.Fatalf("first sample %+v, want %+v", got, want)
	}
	if got, want := ctrl.samples[1], (adaptive.Sample{Benefit: fairness.Benefit(delta, w), Contribution: fairness.Contribution(delta, w)}); got != want {
		t.Fatalf("second sample %+v, want the delta %+v", got, want)
	}
	if p.Fanout() != 5 || p.Batch() != 8 {
		t.Fatalf("levers F=%d N=%d, want 5/8", p.Fanout(), p.Batch())
	}
}

// TestEndRoundAdaptsEveryControlWindow: the levers move on ControlWindow
// boundaries only.
func TestEndRoundAdaptsEveryControlWindow(t *testing.T) {
	p := newPeer(5)
	ctrl := &recordingCtrl{Static: adaptive.Static{F: 3, N: 4}}
	p.Ctrl = ctrl
	for r := 1; r <= 12; r++ {
		if got := p.BeginRound(); got != r {
			t.Fatalf("round %d, want %d", got, r)
		}
		p.EndRound()
	}
	if len(ctrl.samples) != 2 {
		t.Fatalf("%d updates in 12 rounds with window 5, want 2", len(ctrl.samples))
	}
}

// fullPeer partners through the full sampler over a 40-process
// population instead of a view.
func fullPeer(seed int64) *Peer {
	p := newPeer(seed)
	p.Cyclon = nil
	p.Full = membership.FullSampler{Self: 3, N: 40}
	p.Self = 3
	return p
}

// TestPartnersZeroAlloc: SELECTPARTICIPANTS allocates nothing once its
// scratch is warm, over a Cyclon view and over the full sampler.
func TestPartnersZeroAlloc(t *testing.T) {
	for name, p := range map[string]*Peer{"cyclon": newPeer(6), "full": fullPeer(6)} {
		p.Partners(5) // warm the scratch
		if avg := testing.AllocsPerRun(200, func() { p.Partners(5) }); avg != 0 {
			t.Errorf("%s: Partners allocates %.2f times per call, want 0", name, avg)
		}
	}
}

// TestPartnersDrawsFromTheSampler: partners are distinct, never self,
// and drawn from the view (or the population for the full sampler); an
// oversized k is capped at what the sampler knows, and k=0 is nothing.
func TestPartnersDrawsFromTheSampler(t *testing.T) {
	for name, p := range map[string]*Peer{"cyclon": newPeer(7), "full": fullPeer(7)} {
		known := map[simnet.NodeID]bool{}
		if p.Cyclon != nil {
			for _, id := range p.Cyclon.View().IDs() {
				known[id] = true
			}
		} else {
			for id := simnet.NodeID(0); int(id) < p.Full.N; id++ {
				known[id] = id != p.Self
			}
		}
		size := 0
		for _, ok := range known {
			if ok {
				size++
			}
		}
		for trial := 0; trial < 200; trial++ {
			got := p.Partners(4)
			if len(got) != 4 {
				t.Fatalf("%s: sampled %d partners, want 4", name, len(got))
			}
			dup := map[simnet.NodeID]bool{}
			for _, q := range got {
				if q == p.Self || !known[q] || dup[q] {
					t.Fatalf("%s: bad partner %d in %v", name, q, got)
				}
				dup[q] = true
			}
		}
		if got := p.Partners(99); len(got) != size {
			t.Fatalf("%s: oversized k: %d partners, want %d", name, len(got), size)
		}
		if got := p.Partners(0); got != nil {
			t.Fatalf("%s: k=0 sampled %v", name, got)
		}
	}
}

// duplicateEnvelope is a scanned 8-record envelope every record of
// which p has already seen.
func duplicateEnvelope(tb testing.TB, p *Peer) *wire.Envelope {
	tb.Helper()
	batch := make([]*pubsub.Event, 8)
	for i := range batch {
		batch[i] = event(2, i+1)
	}
	buf, err := wire.AppendEnvelope(nil, 2, batch)
	if err != nil {
		tb.Fatal(err)
	}
	env := new(wire.Envelope)
	if err := wire.ScanEnvelope(buf, env); err != nil {
		tb.Fatal(err)
	}
	p.Receive(env, p.Buffer) // first copy: novel
	return env
}

func TestReceiveDuplicatesZeroAlloc(t *testing.T) {
	p := newPeer(8)
	env := duplicateEnvelope(t, p)
	if avg := testing.AllocsPerRun(200, func() { p.Receive(env, p.Buffer) }); avg != 0 {
		t.Fatalf("an all-duplicate receive allocates %.2f times, want 0", avg)
	}
}

// BenchmarkPeerReceiveDuplicates is the common case under push gossip:
// an 8-record envelope the peer already has, deduplicated without
// building a record.
func BenchmarkPeerReceiveDuplicates(b *testing.B) {
	p := newPeer(9)
	env := duplicateEnvelope(b, p)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Receive(env, p.Buffer)
	}
}

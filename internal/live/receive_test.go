package live

import (
	"bytes"
	"testing"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
	"fairgossip/internal/wire"
)

// receiveBatch is a gossip batch from sender: n events with the
// attribute and payload shape of the scenario workload.
func receiveBatch(sender uint32, first, n int) []*pubsub.Event {
	batch := make([]*pubsub.Event, n)
	for i := range batch {
		batch[i] = &pubsub.Event{
			ID:    pubsub.EventID{Publisher: sender, Seq: uint32(first + i)},
			Topic: "topic.12",
			Attrs: []pubsub.Attr{
				{Key: "price", Val: pubsub.Num(float64(first + i))},
				{Key: "symbol", Val: pubsub.String("ACME")},
			},
			Payload: bytes.Repeat([]byte{byte(i)}, 64+i),
		}
	}
	return batch
}

func mustBatchEnvelope(t *testing.T, sender uint32, batch []*pubsub.Event) []byte {
	t.Helper()
	buf, err := wire.AppendEnvelope(nil, sender, batch)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestLiveReceiveDuplicatesZeroAlloc pins dedupe-before-decode: an
// envelope whose events the peer already has is validated and audited
// as junk without building a single event, so receiving it allocates
// nothing. This is the common case under push gossip.
func TestLiveReceiveDuplicatesZeroAlloc(t *testing.T) {
	c := mustCluster(t, Config{N: 8, Seed: 31})
	p := c.peerAt(1)
	buf := mustBatchEnvelope(t, 2, receiveBatch(2, 1, 8))
	p.receive(buf) // first copy: novel, built and buffered
	before := c.ledger.Account(2)
	if avg := testing.AllocsPerRun(200, func() { p.receive(buf) }); avg != 0 {
		t.Fatalf("receiving an all-duplicate envelope allocates %.2f times, want 0", avg)
	}
	after := c.ledger.Account(2)
	if after.UsefulBytes != before.UsefulBytes {
		t.Fatalf("duplicates audited as useful: %d -> %d", before.UsefulBytes, after.UsefulBytes)
	}
	if body := uint64(len(buf) - wire.HeaderSize); after.JunkBytes-before.JunkBytes != 201*body {
		t.Fatalf("junk grew by %d, want %d (one body per receive)", after.JunkBytes-before.JunkBytes, 201*body)
	}
	if p.env.Records() != 0 {
		t.Fatal("the peer still references the last envelope after receive returned")
	}
}

// TestLiveReceiveAuditsMixedEnvelope: in a batch that is part seen,
// part new, only the new events are built and delivered, and the audit
// splits the envelope body exactly — useful bytes are the novel events'
// WireSize, junk bytes the rest.
func TestLiveReceiveAuditsMixedEnvelope(t *testing.T) {
	c := mustCluster(t, Config{N: 8, Seed: 32})
	if _, ok := c.Subscribe(1, pubsub.MatchAll()); !ok {
		t.Fatal("subscribe failed")
	}
	var got []pubsub.EventID
	c.OnDeliver(1, func(ev *pubsub.Event) { got = append(got, ev.ID) })
	p := c.peerAt(1)
	batch := receiveBatch(3, 10, 8)
	// Events 0, 3 and 6 arrive beforehand, one envelope each.
	for _, i := range []int{0, 3, 6} {
		p.receive(mustBatchEnvelope(t, 3, batch[i:i+1]))
	}
	got = got[:0]
	before := c.ledger.Account(3)

	buf := mustBatchEnvelope(t, 3, batch)
	p.receive(buf)
	after := c.ledger.Account(3)
	useful := after.UsefulBytes - before.UsefulBytes
	junk := after.JunkBytes - before.JunkBytes
	if body := uint64(len(buf) - wire.HeaderSize); useful+junk != body {
		t.Fatalf("audit covers %d+%d bytes of a %d-byte body", useful, junk, body)
	}
	var want []pubsub.EventID
	wantUseful := 0
	for i, ev := range batch {
		if i%3 != 0 {
			want = append(want, ev.ID)
			wantUseful += ev.WireSize()
		}
	}
	if useful != uint64(wantUseful) {
		t.Fatalf("useful bytes %d, want the novel events' WireSize %d", useful, wantUseful)
	}
	if len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered %v, want %v", got, want)
		}
		if !p.Buffer.Contains(want[i]) {
			t.Fatalf("novel event %v not buffered for forwarding", want[i])
		}
	}
}

// TestLiveReceiveMalformedBodyHasNoEffect: the scan validates the whole
// envelope before the peer acts on any record, so a batch whose last
// record is corrupt delivers nothing, buffers nothing, audits nothing,
// and is not taken as proof of the sender's life — it is one malformed
// count, even though its leading records are well formed and novel.
func TestLiveReceiveMalformedBodyHasNoEffect(t *testing.T) {
	c := mustCluster(t, Config{N: 8, Seed: 33})
	if _, ok := c.Subscribe(1, pubsub.MatchAll()); !ok {
		t.Fatal("subscribe failed")
	}
	delivered := 0
	c.OnDeliver(1, func(*pubsub.Event) { delivered++ })
	p := c.peerAt(1)
	p.probe = simnet.NodeID(4) // an unanswered probe of the claimed sender
	batch := receiveBatch(4, 1, 4)
	buf := mustBatchEnvelope(t, 4, batch)
	// Corrupt the kind byte of the last record's "symbol" attribute.
	buf[bytes.LastIndex(buf, []byte("symbol"))+len("symbol")] = 7
	before := c.ledger.Account(4)

	p.receive(buf)
	if got := c.Traffic().Malformed; got != 1 {
		t.Fatalf("malformed count %d, want 1", got)
	}
	if delivered != 0 {
		t.Fatalf("a malformed envelope delivered %d events", delivered)
	}
	for _, ev := range batch {
		if p.Seen.Contains(ev.ID) || p.Buffer.Contains(ev.ID) {
			t.Fatalf("event %v of a malformed envelope was accepted", ev.ID)
		}
	}
	if after := c.ledger.Account(4); after != before {
		t.Fatalf("a malformed envelope was audited: %+v -> %+v", before, after)
	}
	if p.probe != simnet.NodeID(4) {
		t.Fatal("a malformed envelope counted as proof of life")
	}
}

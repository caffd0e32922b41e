package live

import (
	"sync/atomic"
	"testing"
	"time"

	"fairgossip/internal/pubsub"
)

// TestLiveRoundPathAllocs pins the steady-state allocation budget of
// the full round path (SELECTEVENTS + encode + fanout sends + tick):
// exactly the one by-design allocation — the envelope buffer shared
// across the fanout (the selection runs over SelectInto's reused peer
// scratch). The rounds are driven by hand on an unstarted cluster, so
// the measurement is deterministic.
func TestLiveRoundPathAllocs(t *testing.T) {
	c := mustCluster(t, Config{
		N: 16, Fanout: 4, Batch: 4,
		BufferMaxAge: 1 << 20, // events stay forwardable for the whole test
		InboxDepth:   4,       // inboxes fill, then sends drop (no allocation either way)
		ShuffleEvery: 1 << 20, // membership off-path: shuffles allocate by design (fresh envelope)
		Seed:         23,
	})
	for k := 0; k < 8; k++ {
		c.Publish(0, "topic", []pubsub.Attr{{Key: "k", Val: pubsub.Num(float64(k))}}, []byte("steady"))
	}
	p := c.peerAt(0)
	for r := 0; r < 50; r++ {
		p.round() // warm scratch buffers, fill inboxes, settle the ledger
	}
	avg := testing.AllocsPerRun(200, func() { p.round() })
	if avg > 1 {
		t.Fatalf("live round path allocates %.2f times per round, want <= 1 (the envelope buffer)", avg)
	}
}

// TestLiveReceiversOwnTheirEvents is the envelope-aliasing audit made
// executable. Before the wire codec, buffer.Select's event pointers
// were handed to every receiver goroutine while the sender kept using
// them: safe only as long as nobody ever wrote to a received event.
// Now each receiver decodes a private copy, so a delivery callback may
// scribble all over what it gets — run under -race (make race does)
// this test proves the chan path is as isolated as the socket path.
func TestLiveReceiversOwnTheirEvents(t *testing.T) {
	c := mustCluster(t, Config{N: 12, Fanout: 4, RoundPeriod: 2 * time.Millisecond, Seed: 24})
	var delivered atomic.Int64
	for i := 0; i < 12; i++ {
		if _, ok := c.Subscribe(i, pubsub.MatchAll()); !ok {
			t.Fatal("subscribe failed")
		}
		c.OnDeliver(i, func(ev *pubsub.Event) {
			// Mutate everything reachable from the delivered event. With
			// shared pointers this is a data race against every other
			// peer (and the sender's re-encoding of the same event).
			// Note this is a race probe, not an endorsed pattern: the
			// event is still shared with this peer's own forward buffer
			// (same goroutine, so race-free), and the mutation is what
			// this peer will forward — see the OnDeliver contract.
			for b := range ev.Payload {
				ev.Payload[b] ^= 0xff
			}
			for a := range ev.Attrs {
				ev.Attrs[a] = pubsub.Attr{Key: "rewritten", Val: pubsub.Bool(true)}
			}
			delivered.Add(1)
		})
	}
	c.Start()
	defer c.Stop()
	for k := 0; k < 4; k++ {
		c.Publish(k, "t", []pubsub.Attr{{Key: "n", Val: pubsub.Num(float64(k))}}, []byte("scribble-target"))
	}
	if !eventually(t, 10*time.Second, func() bool { return delivered.Load() == 4*12 }) {
		t.Fatalf("delivered %d of %d", delivered.Load(), 4*12)
	}
}

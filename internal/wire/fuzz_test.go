package wire

import (
	"bytes"
	"testing"

	"fairgossip/internal/pubsub"
)

// FuzzWireDecode hardens the decoder against arbitrary input. Three
// properties, from a corpus seeded with real encoded envelopes:
//
//  1. DecodeEnvelope never panics and never over-reads, whatever the
//     bytes (the fuzz engine explores truncations, bit flips, and
//     hostile length fields from the seeds).
//  2. The format is canonical: when decode succeeds, re-encoding the
//     decoded envelope reproduces the input byte for byte. Every field
//     is either fixed, exactly validated, or round-tripped at the bit
//     level (floats), so there is exactly one encoding per message.
//  3. The lazy path agrees with the eager one: ScanEnvelope accepts
//     exactly the inputs DecodeEnvelope accepts, and for every record
//     RecordID is the decoded event's ID, RecordSize its WireSize (so
//     a receiver's audit, which charges by RecordSize, still charges
//     wire bytes), and Record the decoded event itself.
func FuzzWireDecode(f *testing.F) {
	for _, ev := range []*pubsub.Event{
		{},
		{ID: pubsub.EventID{Publisher: 1, Seq: 1}, Topic: "news.eu", Payload: []byte("ECB holds rates")},
		{
			ID:    pubsub.EventID{Publisher: 9, Seq: 201},
			Topic: "ticks",
			Attrs: []pubsub.Attr{
				{Key: "symbol", Val: pubsub.String("ACME")},
				{Key: "price", Val: pubsub.Num(101.25)},
				{Key: "halted", Val: pubsub.Bool(false)},
			},
			Payload: bytes.Repeat([]byte{0xab}, 64),
		},
	} {
		one, err := AppendEnvelope(nil, 3, []*pubsub.Event{ev})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(one)
	}
	batch := []*pubsub.Event{
		{ID: pubsub.EventID{Publisher: 2, Seq: 7}, Topic: "a", Payload: []byte("x")},
		{ID: pubsub.EventID{Publisher: 2, Seq: 8}, Topic: "b",
			Attrs: []pubsub.Attr{{Key: "k", Val: pubsub.Num(1)}}},
	}
	multi, err := AppendEnvelope(nil, 2, batch)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(multi)
	// An all-duplicate batch: one event repeated, the shape a receiver
	// mostly sees under push gossip (the codec does not dedupe).
	dup := batch[1]
	dups, err := AppendEnvelope(nil, 2, []*pubsub.Event{dup, dup, dup})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dups)
	// Membership vocabulary: offers, replies, joins and leaves, empty
	// and full.
	entries := []ViewEntry{{ID: 4, Age: 0}, {ID: 90, Age: 3}, {ID: 0xffffffff, Age: 0xffff}}
	for _, kind := range []byte{KindShuffleOffer, KindShuffleReply, KindJoin, KindLeave} {
		for _, n := range []int{0, len(entries)} {
			m, err := AppendMembership(nil, kind, 17, entries[:n])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(m)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xfa, 0x15})

	f.Fuzz(func(t *testing.T, data []byte) {
		var env, scan Envelope
		decErr := DecodeEnvelope(data, &env)
		if scanErr := ScanEnvelope(data, &scan); (scanErr == nil) != (decErr == nil) {
			t.Fatalf("scan and decode disagree: scan %v, decode %v", scanErr, decErr)
		}
		if decErr != nil {
			return // rejected: fine, as long as it did not panic
		}
		if scan.Records() != len(env.Events) {
			t.Fatalf("scan found %d records, decode %d events", scan.Records(), len(env.Events))
		}
		for i, ev := range env.Events {
			if id := scan.RecordID(i); id != ev.ID {
				t.Fatalf("record %d: peeked id %v, decoded %v", i, id, ev.ID)
			}
			if size := scan.RecordSize(i); size != ev.WireSize() {
				t.Fatalf("record %d: record size %d, WireSize %d", i, size, ev.WireSize())
			}
			// Compare by encoding: floats must match bit for bit (NaN too).
			lazy, err1 := AppendEvent(nil, scan.Record(i))
			eager, err2 := AppendEvent(nil, ev)
			if err1 != nil || err2 != nil || !bytes.Equal(lazy, eager) {
				t.Fatalf("record %d: lazy %x (%v), eager %x (%v)", i, lazy, err1, eager, err2)
			}
		}
		var back []byte
		var err error
		if env.Kind == KindEvents {
			back, err = AppendEnvelope(nil, env.Sender, env.Events)
		} else {
			back, err = AppendMembership(nil, env.Kind, env.Sender, env.Entries)
		}
		if err != nil {
			t.Fatalf("decoded envelope does not re-encode: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("non-canonical encoding accepted:\n in  %x\n out %x", data, back)
		}
	})
}

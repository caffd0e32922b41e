package core

import (
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// msgKind discriminates FairGossip wire messages.
type msgKind uint8

const (
	kindGossip        msgKind = iota + 1 // event dissemination (app)
	kindShuffle                          // Cyclon offer (infra)
	kindShuffleReply                     // Cyclon answer (infra)
	kindSubWalk                          // subscription random walk (infra)
	kindSubAck                           // walk answer: group bootstrap (infra)
	kindPubWalk                          // publisher hand-off walk (infra)
	kindViewRepair                       // rejoin view request (infra)
	kindViewRepairAck                    // rejoin view answer (infra)
	kindLeave                            // graceful departure + hand-off entries (infra)
)

// fpAd is a third-party interest-fingerprint advertisement: profile
// knowledge spreads epidemically so semantic bias has peers to choose
// from (semantic.go).
type fpAd struct {
	ID simnet.NodeID
	FP uint64
}

// wireMsg is the single multiplexed payload type FairGossip sends over
// simnet. Only the fields relevant to Kind are set.
type wireMsg struct {
	Kind msgKind

	// kindGossip / kindPubWalk
	Events []*pubsub.Event
	Topic  string             // topic-mode group tag ("" in content mode)
	Ads    []membership.Entry // piggybacked group membership ads
	Junk   int                // cheater padding bytes (counted, carries nothing)
	FP     uint64             // sender interest fingerprint (semantic bias)
	FPAds  []fpAd             // piggybacked third-party fingerprints

	// kindShuffle / kindShuffleReply / kindSubAck / kindViewRepairAck
	Entries []membership.Entry

	// kindSubWalk / kindPubWalk
	Origin simnet.NodeID
	Hops   int

	// pool/refs make gossip envelopes reference-counted and recyclable
	// (pool.go). nil pool = plain allocated message; Retain/Release
	// no-op on it, and the walk paths' `fwd := *m` forwarding copies
	// stay plain (refs is an int32 manipulated via sync/atomic rather
	// than an atomic.Int32 precisely so those value copies stay legal).
	pool *msgPool
	refs int32
}

const (
	wireHeaderSize = 8
	topicTagSize   = 2 // length prefix; topic bytes added separately
)

// size computes the accounting size of a wire message.
func (m *wireMsg) size() int {
	n := wireHeaderSize
	switch m.Kind {
	case kindGossip, kindPubWalk:
		n += gossip.MsgWireSize(m.Events) - gossip.MsgHeaderSize
		n += topicTagSize + len(m.Topic)
		n += len(m.Ads) * membership.EntryWireSize
		n += m.Junk
		if m.FP != 0 {
			n += fingerprintWireSize
		}
		n += len(m.FPAds) * (4 + fingerprintWireSize)
		if m.Kind == kindPubWalk {
			n += 6 // origin + hops
		}
	case kindShuffle, kindShuffleReply, kindSubAck, kindViewRepairAck, kindLeave:
		n += len(m.Entries) * membership.EntryWireSize
		n += topicTagSize + len(m.Topic)
	case kindSubWalk:
		n += topicTagSize + len(m.Topic) + 6
	case kindViewRepair:
		n += 2
	}
	return n
}

// Records, RecordID, RecordSize and Record make a gossip or publication
// walk message a proto.Records batch. Its events are already built, so
// every record is free to read.
func (m *wireMsg) Records() int                  { return len(m.Events) }
func (m *wireMsg) RecordID(i int) pubsub.EventID { return m.Events[i].ID }
func (m *wireMsg) RecordSize(i int) int          { return m.Events[i].WireSize() }
func (m *wireMsg) Record(i int) *pubsub.Event    { return m.Events[i] }

// Package proto is the FairGossip peer core, written once for both
// runtimes: Fig. 4's SELECTEVENTS / SELECTPARTICIPANTS / RECEIVE→DELIVER
// loop, local publication, subscriptions, and the §5.2 per-node lever
// update. A Peer owns no goroutine, no clock and no network. Its driver
// (core.Node on the deterministic simulator, live's peer on real
// goroutines) calls it from one goroutine, decides when rounds happen,
// and carries what the Peer pushes through an Outbox: the sim driver
// hands typed messages to simnet, the live driver encodes one wire
// envelope.
//
// Everything the two drivers do differently stays with them: topic
// groups, walks, semantic bias, cheat padding and view repair on the
// sim; the failure detector, the join handshake, the quarantine filter
// and wire encoding on live; and shuffle initiation, which live wraps in
// the detector's probe.
//
// Determinism: the Peer draws from its driver's RNG in the order the
// drivers always drew (SELECTEVENTS before SELECTPARTICIPANTS), so a
// fixed-seed sim run is byte-identical whichever side owns a rule.
package proto

import (
	"math/rand"

	"fairgossip/internal/adaptive"
	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// Outbox carries one round's push: every partner gets the whole batch.
// Disseminate calls Push at most once per round. Both slices are Peer
// scratch, reused next round: Push must copy or encode what it keeps.
type Outbox interface {
	Push(to []simnet.NodeID, events []*pubsub.Event)
}

// Records is a received event batch that can be deduplicated before it
// is built: a peer reads each record's id and size, and builds (Record)
// only the records it has not seen. wire.Envelope scans datagrams into
// this shape; the sim's typed messages carry built events and answer
// trivially.
type Records interface {
	Records() int
	RecordID(i int) pubsub.EventID
	RecordSize(i int) int // the record's WireSize, built or not
	Record(i int) *pubsub.Event
}

// Peer is one process's protocol state. The driver wires the exported
// fields when it builds the peer and may read them afterwards; the
// Peer's methods are the only writers of the rest.
type Peer struct {
	Self   simnet.NodeID
	Rng    *rand.Rand // the driver's stream: the Peer draws from it in place
	Ledger *fairness.Ledger
	Seen   *gossip.SeenSet
	Buffer *gossip.Buffer // the content-mode forward buffer
	// Cyclon is the partner source; nil selects Full, the idealised
	// sampler over the whole population.
	Cyclon *membership.Cyclon
	Full   membership.FullSampler
	Ctrl   adaptive.Controller // holds the levers F_i and N_i
	Policy gossip.Policy
	// ControlWindow is how many rounds pass between lever updates.
	ControlWindow int

	// OnDeliver, when set, observes every delivered event.
	OnDeliver func(*pubsub.Event)

	interest pubsub.Interest
	last     fairness.Account // ledger reading at the last lever update
	pubSeq   uint32
	rounds   int
	sel      []*pubsub.Event // SELECTEVENTS scratch
	partners []simnet.NodeID // SELECTPARTICIPANTS scratch
}

// Interest exposes the peer's interest function (read-only use).
func (p *Peer) Interest() *pubsub.Interest { return &p.interest }

// Fanout returns the current fanout lever F_i.
func (p *Peer) Fanout() int { return p.Ctrl.Fanout() }

// Batch returns the current gossip-message-size lever N_i.
func (p *Peer) Batch() int { return p.Ctrl.Batch() }

// Rounds returns how many rounds the peer has begun.
func (p *Peer) Rounds() int { return p.rounds }

// Subscribe registers a filter and charges its benefit to the ledger.
func (p *Peer) Subscribe(f pubsub.Filter) pubsub.SubID {
	id := p.interest.Subscribe(f)
	p.Ledger.SetFilters(int(p.Self), p.interest.Count())
	return id
}

// Unsubscribe removes a subscription; false if id was not registered.
func (p *Peer) Unsubscribe(id pubsub.SubID) bool {
	if !p.interest.Unsubscribe(id) {
		return false
	}
	p.Ledger.SetFilters(int(p.Self), p.interest.Count())
	return true
}

// Publish originates an event: it takes the peer's next sequence
// number, charges the publication, marks the event seen and delivers it
// locally if the peer is interested. The caller decides where the event
// is buffered for forwarding.
func (p *Peer) Publish(topic string, attrs []pubsub.Attr, payload []byte) *pubsub.Event {
	p.pubSeq++
	ev := &pubsub.Event{
		ID:      pubsub.EventID{Publisher: uint32(p.Self), Seq: p.pubSeq},
		Topic:   topic,
		Attrs:   attrs,
		Payload: payload,
	}
	p.Ledger.AddPublish(int(p.Self), ev.WireSize())
	p.Seen.Add(ev.ID)
	p.deliver(ev)
	return ev
}

// deliver is Fig. 4's DELIVER, gated by ISINTERESTED: a matching event
// is charged as benefit and handed to OnDeliver.
func (p *Peer) deliver(ev *pubsub.Event) {
	if !p.interest.Match(ev) {
		return
	}
	p.Ledger.AddDelivery(int(p.Self))
	if p.OnDeliver != nil {
		p.OnDeliver(ev)
	}
}

// Receive is RECEIVE: each record's id is checked against the seen set
// before the record is built, so a duplicate costs a lookup and nothing
// else. Novel records are built, inserted into buf (nil forwards
// nothing) and delivered if interesting. It returns the novel and
// duplicate byte counts (record sizes), which the driver charges to the
// sender as the §5.2 novelty audit.
//
//fair:hotpath
func (p *Peer) Receive(recs Records, buf *gossip.Buffer) (novel, dup int) {
	for i, n := 0, recs.Records(); i < n; i++ {
		size := recs.RecordSize(i)
		if !p.Seen.Add(recs.RecordID(i)) {
			dup += size
			continue
		}
		novel += size
		ev := recs.Record(i)
		if buf != nil {
			buf.Insert(ev)
		}
		p.deliver(ev)
	}
	return novel, dup
}

// SelectEvents is SELECTEVENTS(N_i) over buf, into the peer's scratch:
// the batch is valid until the next selection.
func (p *Peer) SelectEvents(buf *gossip.Buffer) []*pubsub.Event {
	return buf.SelectInto(p.Rng, &p.sel, p.Batch(), p.Policy)
}

// Partners is SELECTPARTICIPANTS: up to k distinct partners from the
// Cyclon view, or from the full sampler when there is none, drawn into
// the peer's scratch. The result is valid until the next call.
func (p *Peer) Partners(k int) []simnet.NodeID {
	var got []simnet.NodeID
	if p.Cyclon != nil {
		got = p.Cyclon.View().SampleInto(p.Rng, k, p.partners)
	} else {
		got = p.Full.SampleInto(p.Rng, k, p.partners)
	}
	if got != nil {
		p.partners = got
	}
	return got
}

// BeginRound advances the round counter and returns the new round.
func (p *Peer) BeginRound() int {
	p.rounds++
	return p.rounds
}

// Disseminate is one content-mode push round: SELECTEVENTS, then
// SELECTPARTICIPANTS, then one Push of the batch to every partner, then
// buffer aging. A free-rider only ages its buffer, so it has no backlog
// to replay when it starts forwarding again.
//
//fair:hotpath
func (p *Peer) Disseminate(out Outbox, freeRide bool) {
	if !freeRide {
		if events := p.SelectEvents(p.Buffer); len(events) > 0 {
			if to := p.Partners(p.Fanout()); len(to) > 0 {
				out.Push(to, events)
			}
		}
	}
	p.Buffer.Tick()
}

// EndRound closes a round: every ControlWindow rounds the levers move.
func (p *Peer) EndRound() {
	if p.rounds%p.ControlWindow == 0 {
		p.Adapt()
	}
}

// Adapt is the §5.2 lever update: the controller sees the benefit and
// contribution the ledger recorded for this peer since the last update.
func (p *Peer) Adapt() {
	acct := p.Ledger.Account(int(p.Self))
	delta := fairness.Delta(acct, p.last)
	p.last = acct
	w := p.Ledger.Weights()
	p.Ctrl.Update(adaptive.Sample{
		Benefit:      fairness.Benefit(delta, w),
		Contribution: fairness.Contribution(delta, w),
	})
}

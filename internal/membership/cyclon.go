package membership

import (
	"math/rand"
	"sort"

	"fairgossip/internal/randutil"
	"fairgossip/internal/simnet"
)

// Cyclon implements the view-shuffling logic of the Cyclon protocol
// (Voulgaris, Gavidia, van Steen 2005), one of the partial-view
// maintenance schemes the paper points to for random partner selection.
//
// The embedding node owns message transport: it calls InitiateShuffle on
// its membership timer, sends the offer to the returned target, answers
// incoming offers with HandleShuffle, and completes the exchange with
// HandleReply. Each offer/reply carries ShuffleLen entries, so shuffle
// traffic is proportional to ShuffleLen — this is the "infrastructure
// messages" component of contribution.
type Cyclon struct {
	view       *View
	shuffleLen int

	// pending tracks the entries offered in the most recent unanswered
	// shuffle so that HandleReply can prefer replacing them.
	pending []Entry
	target  simnet.NodeID

	perm  []int           // scratch for offer permutations
	repls []simnet.NodeID // scratch for merge's replaceable list
}

// NewCyclon wraps a view with shuffle logic exchanging l entries per
// shuffle (coerced into [1, view cap]).
func NewCyclon(view *View, l int) *Cyclon {
	if l < 1 {
		l = 1
	}
	if l > view.Cap() {
		l = view.Cap()
	}
	return &Cyclon{view: view, shuffleLen: l, target: simnet.None}
}

// View returns the underlying view.
func (c *Cyclon) View() *View { return c.view }

// ShuffleLen returns the number of entries exchanged per shuffle.
func (c *Cyclon) ShuffleLen() int { return c.shuffleLen }

// InitiateShuffle starts a shuffle round: ages the view, removes the
// oldest peer as exchange target, and returns the offer to send it. ok is
// false when the view is empty. The offer always includes a fresh entry
// for the initiating node itself.
func (c *Cyclon) InitiateShuffle(rng *rand.Rand) (target simnet.NodeID, offer []Entry, ok bool) {
	c.view.IncrementAges()
	oldest, found := c.view.Oldest()
	if !found {
		return simnet.None, nil, false
	}
	c.view.Remove(oldest.ID)

	offer = c.pickOffer(rng, c.shuffleLen-1)
	offer = append(offer, Entry{ID: c.view.Self(), Age: 0})
	// Aliasing the offer is safe: neither the transport nor merge mutates
	// entry slices, and HandleReply drops the reference.
	c.pending = offer
	c.target = oldest.ID
	return oldest.ID, offer, true
}

// pickOffer selects up to k random entries from the view (copies). The
// returned slice is fresh — offers travel in in-flight messages — but the
// permutation runs over the live entries through a reused scratch, with
// the same draws an rng.Perm over a copy would make.
func (c *Cyclon) pickOffer(rng *rand.Rand, k int) []Entry {
	entries := c.view.entries
	if k > len(entries) {
		k = len(entries)
	}
	if k < 0 {
		k = 0
	}
	out := make([]Entry, 0, k+1)
	for _, idx := range randutil.PermInto(rng, &c.perm, len(entries))[:k] {
		out = append(out, entries[idx])
	}
	return out
}

// HandleShuffle processes an incoming offer from peer `from` and returns
// the reply entries. The received entries are merged into the view,
// preferring to overwrite the slots holding entries that were just sent
// back in the reply.
func (c *Cyclon) HandleShuffle(rng *rand.Rand, from simnet.NodeID, offer []Entry) (reply []Entry) {
	reply = c.pickOffer(rng, c.shuffleLen)
	c.merge(offer, reply, from)
	return reply
}

// HandleReply completes a shuffle this node initiated.
func (c *Cyclon) HandleReply(from simnet.NodeID, reply []Entry) {
	if from != c.target {
		// Stale or duplicate reply: merge conservatively without
		// replacement credit.
		c.merge(reply, nil, from)
		return
	}
	c.merge(reply, c.pending, from)
	c.pending = nil
	c.target = simnet.None
}

// HandOff is a graceful leave's view hand-off: send is called once per
// view neighbour, freshest first, with up to ShuffleLen of the freshest
// other entries as that neighbour's replacement contacts — the overlay
// loses the leaver's address but keeps its degree. Each hand is a fresh
// slice the callee may keep (a simulated message carries it by
// reference).
func (c *Cyclon) HandOff(send func(to simnet.NodeID, hand []Entry)) {
	ents := c.view.Entries()
	sort.SliceStable(ents, func(i, j int) bool { return ents[i].Age < ents[j].Age })
	for _, to := range ents {
		hand := make([]Entry, 0, c.shuffleLen)
		for _, e := range ents {
			if len(hand) == c.shuffleLen {
				break
			}
			if e.ID != to.ID {
				hand = append(hand, e)
			}
		}
		send(to.ID, hand)
	}
}

// merge folds received entries into the view: duplicates refresh ages,
// empty capacity is filled first, then slots holding `sent` entries are
// reused, and remaining entries are dropped (Cyclon keeps views bounded).
func (c *Cyclon) merge(received, sent []Entry, from simnet.NodeID) {
	// Deterministic replacement order: the order entries were sent.
	replaceable := c.repls[:0]
	for _, e := range sent {
		if e.ID != c.view.Self() {
			replaceable = append(replaceable, e.ID)
		}
	}
	for _, e := range received {
		if e.ID == c.view.Self() {
			continue
		}
		if c.view.Contains(e.ID) {
			c.view.AddAged(e) // refreshes age if younger
			// An entry we sent that came straight back was re-confirmed
			// by the exchange: it is no longer a replacement victim.
			// (Without this, both sides of a shuffle whose offer and
			// reply overlap can each evict their copy, and the address
			// vanishes from the overlay — silent address loss.)
			for i, victim := range replaceable {
				if victim == e.ID {
					replaceable = append(replaceable[:i], replaceable[i+1:]...)
					break
				}
			}
			continue
		}
		if c.view.Len() < c.view.Cap() {
			c.view.AddAged(e)
			continue
		}
		// Replace one of the entries we just shipped out, if any survive.
		for i, victim := range replaceable {
			if c.view.Contains(victim) {
				c.view.Remove(victim)
				c.view.AddAged(e)
				replaceable = append(replaceable[:i], replaceable[i+1:]...)
				break
			}
		}
		// View full and nothing replaceable: the entry is dropped.
	}
	// Knowing `from` is alive is free information; remember it if there
	// is room (keeps early views growing before first replies).
	if from != c.view.Self() && !c.view.Contains(from) && c.view.Len() < c.view.Cap() {
		c.view.AddAged(Entry{ID: from, Age: 0})
	}
	c.repls = replaceable[:0] // keep the grown scratch capacity
}

// EntryWireSize is the accounting size of one view entry on the wire:
// 4 bytes of node id + 2 bytes of age.
const EntryWireSize = 6

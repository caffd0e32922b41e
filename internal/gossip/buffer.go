// Package gossip implements the basic push gossip-dissemination algorithm
// of Fig. 4 of the paper: periodically, each process picks F communication
// partners at random (SELECTPARTICIPANTS), packs up to N buffered events
// into a gossip message (SELECTEVENTS), and pushes it. Receivers
// deduplicate, re-buffer, and DELIVER events matching ISINTERESTED.
//
// The package provides the event buffer with age-based garbage collection,
// the duplicate-suppression set, the event-selection policies (an ablation
// axis), and a self-contained Peer used by the baseline reliability
// experiments (EXP-F4). The fairness-aware peer core in internal/proto,
// which the simulator (internal/core) and the live runtime both drive,
// composes the same pieces.
package gossip

import (
	"math/rand"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/randutil"
)

// Policy selects which buffered events go into a gossip message — the
// paper's SELECTEVENTS(N in events).
type Policy uint8

const (
	// PolicyRandom picks uniformly at random among buffered events.
	PolicyRandom Policy = iota + 1
	// PolicyNewest prefers the events with the lowest age.
	PolicyNewest
	// PolicyLeastSent prefers events this process has forwarded least,
	// spreading forwarding effort across entries (round-robin-ish).
	PolicyLeastSent
)

type bufEntry struct {
	ev   *pubsub.Event
	age  int // rounds since insertion
	sent int // times included in an outgoing gossip message
}

// Buffer is the bounded `events` set of Fig. 4 with lpbcast-style
// age-based eviction: events older than MaxAge rounds are dropped, and
// when capacity overflows the oldest (then most-sent) entries go first.
//
// Entries live in a recycled slab indexed through the id map, so the
// per-message insert/evict churn of a long run allocates nothing once the
// slab has warmed up.
type Buffer struct {
	cap    int
	maxAge int
	slab   []bufEntry // entry storage; indices are stable handles
	freeL  []int32    // recycled slab slots
	items  map[pubsub.EventID]int32
	order  []pubsub.EventID // insertion order, oldest first
	perm   []int            // scratch for PolicyRandom selection
}

// NewBuffer returns a buffer holding at most capacity events, each for at
// most maxAge rounds. Minimums of 1 apply.
func NewBuffer(capacity, maxAge int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	if maxAge < 1 {
		maxAge = 1
	}
	return &Buffer{
		cap:    capacity,
		maxAge: maxAge,
		items:  make(map[pubsub.EventID]int32, capacity),
	}
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.items) }

// Contains reports whether the event id is buffered.
func (b *Buffer) Contains(id pubsub.EventID) bool {
	_, ok := b.items[id]
	return ok
}

// Get returns the buffered event with the given id, if present. Serving
// an event through Get (anti-entropy pulls) counts as a send for the
// least-sent selection policy.
func (b *Buffer) Get(id pubsub.EventID) (*pubsub.Event, bool) {
	idx, ok := b.items[id]
	if !ok {
		return nil, false
	}
	e := &b.slab[idx]
	e.sent++
	return e.ev, true
}

// alloc returns a free slab slot.
func (b *Buffer) alloc() int32 {
	if n := len(b.freeL); n > 0 {
		idx := b.freeL[n-1]
		b.freeL = b.freeL[:n-1]
		return idx
	}
	b.slab = append(b.slab, bufEntry{})
	return int32(len(b.slab) - 1)
}

// release recycles a slab slot, dropping the event reference for the GC.
func (b *Buffer) release(idx int32) {
	b.slab[idx] = bufEntry{}
	b.freeL = append(b.freeL, idx)
}

// Insert adds an event. It reports false for duplicates. When the buffer
// is full, the oldest entry is evicted to make room.
func (b *Buffer) Insert(ev *pubsub.Event) bool {
	if _, dup := b.items[ev.ID]; dup {
		return false
	}
	if len(b.items) >= b.cap {
		b.evictOldest()
	}
	idx := b.alloc()
	b.slab[idx] = bufEntry{ev: ev}
	b.items[ev.ID] = idx
	b.order = append(b.order, ev.ID)
	return true
}

func (b *Buffer) evictOldest() {
	for len(b.order) > 0 {
		id := b.order[0]
		b.order = b.order[1:]
		if idx, ok := b.items[id]; ok {
			delete(b.items, id)
			b.release(idx)
			return
		}
	}
}

// Tick advances every entry's age by one round and evicts expired
// entries. Call once per gossip round.
func (b *Buffer) Tick() {
	if len(b.items) == 0 {
		return
	}
	live := b.order[:0]
	for _, id := range b.order {
		idx, ok := b.items[id]
		if !ok {
			continue
		}
		e := &b.slab[idx]
		e.age++
		if e.age >= b.maxAge {
			delete(b.items, id)
			b.release(idx)
			continue
		}
		live = append(live, id)
	}
	b.order = live
}

// Select returns up to n distinct buffered events according to the
// policy, marking them as sent once each. The returned slice is fresh
// (callers hand it to in-flight messages); the permutation scratch behind
// PolicyRandom is reused across calls.
func (b *Buffer) Select(rng *rand.Rand, n int, policy Policy) []*pubsub.Event {
	if n > len(b.items) {
		n = len(b.items)
	}
	if n <= 0 {
		return nil
	}
	scratch := make([]*pubsub.Event, 0, n)
	return b.SelectInto(rng, &scratch, n, policy)
}

// SelectInto is Select with caller-owned storage: the selection appends
// into *scratch (reset to length zero first), growing it only when the
// batch exceeds its capacity, and returns the filled slice. It consumes
// the random stream draw-for-draw identically to Select, so swapping it
// in never changes a fixed-seed run — only its allocation profile. The
// caller must not hand the returned slice to anything that outlives the
// scratch's next reuse; the pooled gossip envelope path copies out of it
// before the next round.
func (b *Buffer) SelectInto(rng *rand.Rand, scratch *[]*pubsub.Event, n int, policy Policy) []*pubsub.Event {
	out := (*scratch)[:0]
	*scratch = out
	if n > len(b.items) {
		n = len(b.items)
	}
	if n <= 0 {
		return out
	}
	ids := b.liveIDs()
	switch policy {
	case PolicyNewest:
		// order is oldest-first; take from the tail.
		ids = ids[len(ids)-n:]
	case PolicyLeastSent:
		// Partial selection by sent count; stable by age for determinism.
		b.sortBySent(ids)
		ids = ids[:n]
	default: // PolicyRandom
		perm := randutil.PermInto(rng, &b.perm, len(ids))
		for _, idx := range perm[:n] {
			e := &b.slab[b.items[ids[idx]]]
			e.sent++
			out = append(out, e.ev)
		}
		*scratch = out
		return out
	}
	for _, id := range ids {
		e := &b.slab[b.items[id]]
		e.sent++
		out = append(out, e.ev)
	}
	*scratch = out
	return out
}

// liveIDs compacts b.order, dropping tombstones, and returns it.
func (b *Buffer) liveIDs() []pubsub.EventID {
	live := b.order[:0]
	for _, id := range b.order {
		if _, ok := b.items[id]; ok {
			live = append(live, id)
		}
	}
	b.order = live
	return live
}

// sortBySent is an insertion sort by ascending sent count (buffers are
// small; stability preserves age order among equals).
func (b *Buffer) sortBySent(ids []pubsub.EventID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && b.slab[b.items[ids[j]]].sent < b.slab[b.items[ids[j-1]]].sent; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

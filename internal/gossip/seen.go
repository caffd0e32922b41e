package gossip

import "fairgossip/internal/pubsub"

// SeenSet remembers recently observed event IDs for duplicate suppression
// (the `delivered`/`events` union of Fig. 4 outlives the buffer so that
// expired events are not re-delivered). Eviction is FIFO.
//
// The implementation is an open-addressed uint64 hash table (linear
// probing, backward-shift deletion) over packed (publisher, seq) keys,
// paired with a circular FIFO ring. Membership tests are the single
// hottest operation of the whole simulation — every event in every gossip
// message passes through Add — and the flat table roughly halves their
// cost versus a Go map while allocating only on (amortised) growth.
type SeenSet struct {
	cap   int      // max remembered ids
	tab   []uint64 // open-addressed keys; emptySlot marks a free slot
	mask  uint64
	ring  []uint64 // circular FIFO of keys, oldest at head
	head  int
	count int
}

// emptySlot marks a free table slot. The value corresponds to event id
// (publisher 2^32-1, seq 2^32-1); publishers are dense small node ids, so
// the key is unreachable in practice.
const emptySlot = ^uint64(0)

func packID(id pubsub.EventID) uint64 {
	return uint64(id.Publisher)<<32 | uint64(id.Seq)
}

// mix64 is the splitmix64 finaliser — a fast, well-distributed hash for
// packed ids.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewSeenSet returns a set remembering at most capacity ids (minimum 1).
func NewSeenSet(capacity int) *SeenSet {
	if capacity < 1 {
		capacity = 1
	}
	s := &SeenSet{cap: capacity}
	s.grow(16)
	return s
}

// grow rehashes into a table of n slots (a power of two).
func (s *SeenSet) grow(n int) {
	old := s.tab
	s.tab = make([]uint64, n)
	for i := range s.tab {
		s.tab[i] = emptySlot
	}
	s.mask = uint64(n - 1)
	for _, k := range old {
		if k != emptySlot {
			s.insert(k)
		}
	}
}

// insert places a known-absent key.
func (s *SeenSet) insert(k uint64) {
	i := mix64(k) & s.mask
	for s.tab[i] != emptySlot {
		i = (i + 1) & s.mask
	}
	s.tab[i] = k
}

// find returns the slot of k, or -1.
func (s *SeenSet) find(k uint64) int {
	i := mix64(k) & s.mask
	for {
		v := s.tab[i]
		if v == k {
			return int(i)
		}
		if v == emptySlot {
			return -1
		}
		i = (i + 1) & s.mask
	}
}

// remove deletes k using backward-shift deletion, keeping probe chains
// intact without tombstones.
func (s *SeenSet) remove(k uint64) {
	idx := s.find(k)
	if idx < 0 {
		return
	}
	i := uint64(idx)
	j := i
	for {
		j = (j + 1) & s.mask
		v := s.tab[j]
		if v == emptySlot {
			break
		}
		// v may fill the hole at i iff its home slot lies at or before i
		// along the probe path ending at j.
		if home := mix64(v) & s.mask; (j-home)&s.mask >= (j-i)&s.mask {
			s.tab[i] = v
			i = j
		}
	}
	s.tab[i] = emptySlot
}

// growRing doubles the full ring (up to the capacity), linearising
// head..tail.
func (s *SeenSet) growRing() {
	n := 2 * len(s.ring)
	if n < 16 {
		n = 16
	}
	if n > s.cap {
		n = s.cap
	}
	ring := make([]uint64, n)
	for i := 0; i < s.count; i++ {
		ring[i] = s.ring[(s.head+i)%len(s.ring)]
	}
	s.ring = ring
	s.head = 0
}

// Add inserts the id, reporting true if it was new. It allocates only
// while the set grows toward its capacity.
//
//fair:hotpath
func (s *SeenSet) Add(id pubsub.EventID) bool {
	k := packID(id)
	if s.find(k) >= 0 {
		return false
	}
	if s.count == s.cap {
		// Evict the oldest remembered id, FIFO.
		victim := s.ring[s.head]
		s.remove(victim)
		s.ring[s.head] = 0
		s.head++
		if s.head == len(s.ring) {
			s.head = 0
		}
		s.count--
	} else if s.count == len(s.ring) {
		s.growRing() //fair:ignore hotpath amortised growth that stops at the capacity; a full set's Add allocates nothing (TestLiveReceiveDuplicatesZeroAlloc)
	}
	// Keep the probe load factor at or below 1/2.
	if 2*(s.count+1) > len(s.tab) {
		s.grow(2 * len(s.tab)) //fair:ignore hotpath amortised doubling, bounded because count never exceeds the capacity
	}
	s.insert(k)
	tail := s.head + s.count
	if tail >= len(s.ring) {
		tail -= len(s.ring)
	}
	s.ring[tail] = k
	s.count++
	return true
}

// Contains reports whether the id is remembered.
func (s *SeenSet) Contains(id pubsub.EventID) bool {
	return s.find(packID(id)) >= 0
}

// Len returns the number of remembered ids.
func (s *SeenSet) Len() int { return s.count }

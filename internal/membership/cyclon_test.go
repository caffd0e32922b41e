package membership

import (
	"math/rand"
	"testing"
	"time"

	"fairgossip/internal/eventsim"
	"fairgossip/internal/simnet"
)

func TestCyclonPairExchange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	va := NewView(0, 4)
	vb := NewView(1, 4)
	for _, id := range []simnet.NodeID{1, 2, 3} {
		va.Add(id)
	}
	for _, id := range []simnet.NodeID{0, 4, 5} {
		vb.Add(id)
	}
	ca := NewCyclon(va, 3)
	cb := NewCyclon(vb, 3)

	target, offer, ok := ca.InitiateShuffle(rng)
	if !ok {
		t.Fatal("initiate failed")
	}
	if va.Contains(target) {
		t.Fatal("target must be removed from initiator view")
	}
	// The offer must carry a fresh self-entry.
	foundSelf := false
	for _, e := range offer {
		if e.ID == 0 {
			foundSelf = true
			if e.Age != 0 {
				t.Fatal("self entry must be fresh")
			}
		}
	}
	if !foundSelf {
		t.Fatal("offer lacks self entry")
	}
	if len(offer) > 3 {
		t.Fatalf("offer too large: %d", len(offer))
	}

	reply := cb.HandleShuffle(rng, 0, offer)
	if len(reply) > 3 {
		t.Fatalf("reply too large: %d", len(reply))
	}
	// B must now know A.
	if !vb.Contains(0) {
		t.Fatal("responder did not learn the initiator")
	}
	ca.HandleReply(target, reply)

	for name, v := range map[string]*View{"a": va, "b": vb} {
		if v.Len() > v.Cap() {
			t.Fatalf("view %s exceeded capacity", name)
		}
		seen := map[simnet.NodeID]bool{}
		for _, e := range v.Entries() {
			if e.ID == v.Self() {
				t.Fatalf("view %s contains self", name)
			}
			if seen[e.ID] {
				t.Fatalf("view %s contains duplicate", name)
			}
			seen[e.ID] = true
		}
	}
}

func TestCyclonEmptyView(t *testing.T) {
	c := NewCyclon(NewView(0, 4), 3)
	if _, _, ok := c.InitiateShuffle(rand.New(rand.NewSource(1))); ok {
		t.Fatal("initiate on empty view must fail")
	}
}

func TestCyclonStaleReplyIsSafe(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	v := NewView(0, 4)
	v.Add(1)
	c := NewCyclon(v, 3)
	// A reply that was never solicited must merge conservatively, not panic.
	c.HandleReply(7, []Entry{{ID: 8, Age: 1}, {ID: 0, Age: 0}})
	if v.Contains(0) {
		t.Fatal("self leaked into view")
	}
	if !v.Contains(8) {
		t.Fatal("unsolicited entries should still be learned when there is room")
	}
	_ = rng
}

func TestCyclonShuffleLenClamped(t *testing.T) {
	v := NewView(0, 3)
	if got := NewCyclon(v, 99).ShuffleLen(); got != 3 {
		t.Fatalf("ShuffleLen = %d, want cap 3", got)
	}
	if got := NewCyclon(v, 0).ShuffleLen(); got != 1 {
		t.Fatalf("ShuffleLen = %d, want 1", got)
	}
}

// cyclonSimNode drives Cyclon over simnet for the convergence test.
type cyclonSimNode struct {
	id  simnet.NodeID
	net *simnet.Network
	cy  *Cyclon
	rng *rand.Rand
}

type shuffleMsg struct {
	reply   bool
	entries []Entry
}

func (n *cyclonSimNode) HandleMessage(msg simnet.Message) {
	sm := msg.Payload.(shuffleMsg)
	if sm.reply {
		n.cy.HandleReply(msg.From, sm.entries)
		return
	}
	reply := n.cy.HandleShuffle(n.rng, msg.From, sm.entries)
	n.net.Send(n.id, msg.From, shuffleMsg{reply: true, entries: reply}, len(reply)*EntryWireSize)
}

func (n *cyclonSimNode) shuffle() {
	target, offer, ok := n.cy.InitiateShuffle(n.rng)
	if !ok {
		return
	}
	n.net.Send(n.id, target, shuffleMsg{entries: offer}, len(offer)*EntryWireSize)
}

// TestCyclonConvergence runs 64 nodes bootstrapped in a ring and checks
// that shuffling yields a connected overlay with roughly uniform
// in-degree — the property dissemination relies on.
func TestCyclonConvergence(t *testing.T) {
	const n = 64
	const viewCap = 8
	sim := eventsim.New(42)
	net := simnet.New(sim, simnet.Config{Latency: simnet.ConstantLatency(2 * time.Millisecond)})
	nodes := make([]*cyclonSimNode, n)
	for i := 0; i < n; i++ {
		v := NewView(simnet.NodeID(i), viewCap)
		// Ring bootstrap: successors only.
		for d := 1; d <= 3; d++ {
			v.Add(simnet.NodeID((i + d) % n))
		}
		nodes[i] = &cyclonSimNode{
			id:  simnet.NodeID(i),
			cy:  NewCyclon(v, 4),
			rng: rand.New(rand.NewSource(int64(1000 + i))),
		}
	}
	for _, nd := range nodes {
		nd.net = net
		net.AddNode(nd)
	}
	for _, nd := range nodes {
		nd := nd
		sim.Every(100*time.Millisecond, 10*time.Millisecond, nd.shuffle)
	}
	sim.RunUntil(20 * time.Second) // ≈200 shuffle rounds

	// Views must be full and valid.
	indeg := make([]int, n)
	for _, nd := range nodes {
		if nd.cy.View().Len() < viewCap-1 {
			t.Fatalf("node %d view only %d/%d", nd.id, nd.cy.View().Len(), viewCap)
		}
		for _, id := range nd.cy.View().IDs() {
			indeg[id]++
		}
	}

	// Undirected connectivity via BFS over the union graph.
	adj := make([][]simnet.NodeID, n)
	for _, nd := range nodes {
		for _, id := range nd.cy.View().IDs() {
			adj[nd.id] = append(adj[nd.id], id)
			adj[id] = append(adj[id], nd.id)
		}
	}
	seen := make([]bool, n)
	queue := []simnet.NodeID{0}
	seen[0] = true
	count := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		count++
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if count != n {
		t.Fatalf("overlay disconnected: reached %d of %d", count, n)
	}

	// In-degree balance: CoV under 0.5 (random graphs sit near 1/sqrt(cap)≈0.35).
	var mean, m2 float64
	for i, d := range indeg {
		x := float64(d)
		mean += x
		_ = i
		m2 += x * x
	}
	mean /= n
	variance := m2/n - mean*mean
	cov := 0.0
	if mean > 0 {
		cov = sqrt(variance) / mean
	}
	if cov > 0.5 {
		t.Fatalf("in-degree too skewed: CoV=%.3f (degrees %v)", cov, indeg)
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func BenchmarkCyclonShuffle(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	va := NewView(0, 16)
	vb := NewView(1, 16)
	for i := 2; i < 18; i++ {
		va.Add(simnet.NodeID(i))
		vb.Add(simnet.NodeID(i + 16))
	}
	ca := NewCyclon(va, 8)
	cb := NewCyclon(vb, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target, offer, ok := ca.InitiateShuffle(rng)
		if !ok {
			// Re-seed the view when it drains.
			va.Add(1)
			continue
		}
		reply := cb.HandleShuffle(rng, 0, offer)
		ca.HandleReply(target, reply)
	}
}

// TestHandOffFreshestFirst: a graceful leave hands every view neighbour
// up to ShuffleLen of the freshest other entries, freshest neighbour
// first, never the neighbour's own address, each hand its own slice.
func TestHandOffFreshestFirst(t *testing.T) {
	v := NewView(0, 8)
	for id, age := range []int{0, 5, 1, 4, 2, 3} {
		if id > 0 {
			v.AddAged(Entry{ID: simnet.NodeID(id), Age: age})
		}
	}
	c := NewCyclon(v, 3)
	var to []simnet.NodeID
	var hands [][]Entry
	c.HandOff(func(id simnet.NodeID, hand []Entry) {
		to = append(to, id)
		hands = append(hands, hand)
	})
	// Ages: 2→1, 4→2, 5→3, 3→4, 1→5.
	wantTo := []simnet.NodeID{2, 4, 5, 3, 1}
	if len(to) != len(wantTo) {
		t.Fatalf("handed off to %v, want %v", to, wantTo)
	}
	for i := range wantTo {
		if to[i] != wantTo[i] {
			t.Fatalf("handed off to %v, want %v", to, wantTo)
		}
	}
	for i, hand := range hands {
		want := make([]simnet.NodeID, 0, 3)
		for _, id := range wantTo {
			if id != to[i] && len(want) < 3 {
				want = append(want, id)
			}
		}
		if len(hand) != len(want) {
			t.Fatalf("hand to %d: %v, want ids %v", to[i], hand, want)
		}
		for j := range want {
			if hand[j].ID != want[j] {
				t.Fatalf("hand to %d: %v, want ids %v", to[i], hand, want)
			}
		}
	}
	hands[0][0].ID = 99
	if hands[1][0].ID == 99 {
		t.Fatal("hands share backing storage")
	}
}

package main

import (
	"fmt"
	"math/rand"
	"sort"

	"fairgossip/internal/pubsub"
	"fairgossip/internal/workload"
)

// spec is one workload: the system it drives, at what scale, and the
// shape of the inputs generated for it from the seed.
type spec struct {
	Name string
	Why  string
	Sim  bool // sim workloads drive core; live ones drive live

	// Inputs.
	Content       bool // stock ticks under `symbol == S || price >= P` filters
	Huge          bool // every node subscribes to everything (MatchAll)
	Topics        int  // topic workloads: Zipf(1) topic count ...
	TopicsPerPeer int  // ... and topics per subscriber
	Payload       int  // payload bytes per event

	// Live workloads: an open loop publishing Rate events per second.
	Peers int
	UDP   bool
	Rate  float64
	Batch int

	// Sim workloads: a batch job of PubsPerRound publications in each of
	// RoundsPerSecond × seconds rounds, then DrainRounds more rounds.
	Nodes           int
	Shards          int
	PubsPerRound    int
	RoundsPerSecond float64
	WarmupRounds    int
	DrainRounds     int

	// SetupReps is how many times a run builds the system; setup_s is
	// the median and the last build is the one measured.
	SetupReps int
}

var workloads = []spec{
	{
		Name:    "live-chan-content",
		Why:     "64 in-process live peers under content filters: per-message CPU (envelope decode, SeenSet, Buffer select, filter match) dominates, the transport is a plain call",
		Content: true, Payload: 16,
		Peers: 64, Rate: 300, Batch: 32,
		SetupReps: 9,
	},
	{
		Name:   "live-udp-payload",
		Why:    "32 live peers on loopback UDP with 1 KiB payloads in tens-of-KB envelopes: syscalls, payload copies and GC dominate",
		Topics: 16, TopicsPerPeer: 2, Payload: 1024,
		Peers: 32, UDP: true, Rate: 250, Batch: 32,
		SetupReps: 9,
	},
	{
		Name: "sim-paper",
		Why:  "5k-node single-threaded simulator in topic mode with walks, Cyclon and AIMD on per-node jittered tickers: timer- and membership-heavy",
		Sim:  true, Topics: 32, TopicsPerPeer: 2, Payload: 64,
		Nodes: 5000, Shards: 1, PubsPerRound: 30, RoundsPerSecond: 3,
		WarmupRounds: 10, DrainRounds: 10,
		SetupReps: 3,
	},
	{
		Name: "sim-huge",
		Why:  "100k nodes on 2 shards with batched rounds and the full sampler: barrier windows, mailboxes and ledger writes at scale; no wire, transport or Cyclon",
		Sim:  true, Huge: true, Payload: 16,
		Nodes: 100000, Shards: 2, PubsPerRound: 8, RoundsPerSecond: 0.5,
		DrainRounds: 10,
		SetupReps:   3,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// event is one generated publication. attrs and payload are handed to
// the program; gold is a private copy the deliveries are compared with.
type event struct {
	pub     int
	seq     uint32 // the program numbers each publisher's events 1, 2, ...
	topic   string
	attrs   []pubsub.Attr
	payload []byte
	gold    golden

	sym   string  // content workloads: the symbol attribute ...
	price float64 // ... and the price attribute, for the benchmark's own matching
	round int     // sim workloads: the round it is published before
}

type golden struct {
	topic   string
	attrs   []pubsub.Attr
	payload []byte
}

// equal reports whether a delivered event carries exactly the published
// topic, attributes and payload bytes.
func (g *golden) equal(e *pubsub.Event) bool {
	if e.Topic != g.topic || len(e.Attrs) != len(g.attrs) || string(e.Payload) != string(g.payload) {
		return false
	}
	for i := range g.attrs {
		if e.Attrs[i] != g.attrs[i] {
			return false
		}
	}
	return true
}

// interest is a subscriber's filter as the benchmark itself evaluates
// it, independently of pubsub's matcher.
type interest struct {
	all    bool
	sym    string
	price  float64
	topics []string
	filter []pubsub.Filter // what the program is subscribed with
}

func (in *interest) match(ev *event) bool {
	switch {
	case in.all:
		return true
	case in.topics != nil:
		for _, t := range in.topics {
			if t == ev.topic {
				return true
			}
		}
		return false
	default:
		return ev.sym == in.sym || ev.price >= in.price
	}
}

// inputs is everything a run publishes and subscribes, generated from
// the seed alone.
type inputs struct {
	seed   int64
	events []event
	subs   []interest
	seqIdx [][]int32 // [publisher][seq-1] -> event index
	want   int       // expected deliveries
}

func (in *inputs) lookup(id pubsub.EventID) (int, bool) {
	p := int(id.Publisher)
	if p >= len(in.seqIdx) || id.Seq == 0 || int(id.Seq) > len(in.seqIdx[p]) {
		return 0, false
	}
	return int(in.seqIdx[p][id.Seq-1]), true
}

// expected counts the (event, subscriber) pairs that should be
// delivered: the subscriber is not the publisher and its filter matches.
func (in *inputs) expected() int {
	n := 0
	if len(in.subs) > 0 && in.subs[0].all {
		return len(in.events) * (len(in.subs) - 1)
	}
	for i := range in.events {
		ev := &in.events[i]
		for s := range in.subs {
			if s != ev.pub && in.subs[s].match(ev) {
				n++
			}
		}
	}
	return n
}

// publications is the number of events a run of the given length
// publishes: rate × seconds for live workloads, PubsPerRound in each of
// RoundsPerSecond × seconds rounds for sim ones.
func (w spec) publications(seconds float64) int {
	if w.Sim {
		return w.PubsPerRound * w.pubRounds(seconds)
	}
	return max(1, int(w.Rate*seconds))
}

func (w spec) pubRounds(seconds float64) int {
	return max(1, int(w.RoundsPerSecond*seconds+0.5))
}

func (w spec) population() int {
	if w.Sim {
		return w.Nodes
	}
	return w.Peers
}

// generate builds a run's inputs from the seed.
func generate(w spec, seed int64, seconds float64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	n := w.population()
	in := &inputs{seed: seed, subs: make([]interest, n), seqIdx: make([][]int32, n)}

	var stocks *workload.Stocks
	var topics *workload.Topics
	switch {
	case w.Huge:
		for i := range in.subs {
			in.subs[i] = interest{all: true, filter: []pubsub.Filter{pubsub.MatchAll()}}
		}
	case w.Content:
		// Thresholds and symbols are ladders the seed only permutes, so
		// the population's total selectivity barely depends on the seed.
		stocks = workload.NewStocks(16)
		perm := rng.Perm(n)
		for i := range in.subs {
			sel := 0.05 + 0.25*float64(perm[i])/float64(max(1, n-1))
			sym := stocks.Symbols[(perm[i]*7)%len(stocks.Symbols)]
			price := stocks.PriceMax * (1 - sel)
			f := pubsub.MustParse(fmt.Sprintf("symbol == %s || price >= %g", pubsub.QuoteString(sym), price))
			in.subs[i] = interest{sym: sym, price: price, filter: []pubsub.Filter{f}}
		}
	default:
		topics = workload.NewTopics(w.Topics, 1.0)
		sets := topicSets(topics, n, w.TopicsPerPeer)
		perm := rng.Perm(n)
		for i := range in.subs {
			set := sets[perm[i]]
			fs := make([]pubsub.Filter, len(set))
			for j, t := range set {
				fs[j] = pubsub.Topic(t)
			}
			in.subs[i] = interest{topics: set, filter: fs}
		}
	}

	total := w.publications(seconds)
	in.events = make([]event, total)
	var eventTopics []string
	if topics != nil {
		eventTopics = stratified(rng, topics, total)
	}
	for i := range in.events {
		ev := &in.events[i]
		ev.pub = rng.Intn(n)
		if w.Sim {
			ev.round = i / w.PubsPerRound
		}
		switch {
		case w.Content:
			ev.topic = "ticks"
			ev.attrs = stocks.Event(rng)
			for _, a := range ev.attrs {
				switch a.Key {
				case "symbol":
					ev.sym = a.Val.Str()
				case "price":
					ev.price = a.Val.NumVal()
				}
			}
		case w.Huge:
			ev.topic = "feed"
		default:
			ev.topic = eventTopics[i]
		}
		ev.payload = make([]byte, w.Payload)
		rng.Read(ev.payload)
		ev.gold = golden{
			topic:   ev.topic,
			attrs:   append([]pubsub.Attr(nil), ev.attrs...),
			payload: append([]byte(nil), ev.payload...),
		}
		in.seqIdx[ev.pub] = append(in.seqIdx[ev.pub], int32(i))
		ev.seq = uint32(len(in.seqIdx[ev.pub]))
	}
	in.want = in.expected()
	return in
}

// topicSets gives n subscribers k topics each. Every topic gets a share
// of the n·k subscriptions proportional to its popularity (largest
// remainder), dealt so no subscriber holds a topic twice; the caller
// permutes who gets which set. The seed then decides who subscribes to
// what, but not how many subscribe to each topic, which keeps a run's
// delivery count nearly independent of the seed.
func topicSets(t *workload.Topics, n, k int) [][]string {
	slots := n * k
	counts := make([]int, t.Len())
	type rem struct {
		topic int
		frac  float64
	}
	rems := make([]rem, t.Len())
	used := 0
	for i := range counts {
		exact := t.Weight(i) * float64(slots)
		counts[i] = min(n, int(exact))
		used += counts[i]
		rems[i] = rem{i, exact - float64(counts[i])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for j := 0; used < slots; j = (j + 1) % len(rems) {
		if counts[rems[j].topic] < n {
			counts[rems[j].topic]++
			used++
		}
	}
	sets := make([][]string, n)
	j := 0
	for i, c := range counts {
		for ; c > 0; c-- {
			sets[j%n] = append(sets[j%n], t.Names[i])
			j++
		}
	}
	for _, s := range sets {
		sort.Strings(s)
	}
	return sets
}

// stratified draws n topics whose counts follow the popularity
// distribution exactly (one random offset, evenly spaced quantiles), in
// a seeded random order.
func stratified(rng *rand.Rand, t *workload.Topics, n int) []string {
	out := make([]string, n)
	off := rng.Float64()
	cum, i := t.Weight(0), 0
	for j := range out {
		u := (float64(j) + off) / float64(n)
		for u > cum && i < t.Len()-1 {
			i++
			cum += t.Weight(i)
		}
		out[j] = t.Names[i]
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// delivery is one observed (event, subscriber) delivery: at is
// nanoseconds since the run's time base on live workloads and the round
// index on sim ones.
type delivery struct {
	ev int32
	at int64
}

// slot holds one subscriber's deliveries. Only that subscriber's
// callback writes it (one peer goroutine, or the shard goroutine owning
// the node), so no two goroutines share a slot.
type slot struct {
	dl       []delivery
	falseN   int      // deliveries the subscriber's filter does not match
	corruptN int      // deliveries whose bytes differ from what was published
	unknownN int      // deliveries of events nobody published
	_        [40]byte // keep neighbouring slots off one cache line
}

// recorder checks and records every delivery callback of a run.
type recorder struct {
	in    *inputs
	slots []slot
}

func newRecorder(in *inputs) *recorder {
	return &recorder{in: in, slots: make([]slot, len(in.subs))}
}

// deliver runs inside the program's delivery callback for subscriber
// sub. It must stay cheap: it runs on the program's own goroutines.
func (r *recorder) deliver(sub int, e *pubsub.Event, at int64) {
	s := &r.slots[sub]
	idx, ok := r.in.lookup(e.ID)
	if !ok {
		s.unknownN++
		return
	}
	ev := &r.in.events[idx]
	if ev.pub == sub {
		return // the publisher's own copy is not a delivery
	}
	if !r.in.subs[sub].match(ev) {
		s.falseN++
		return
	}
	if !ev.gold.equal(e) {
		s.corruptN++
	}
	s.dl = append(s.dl, delivery{ev: int32(idx), at: at})
}

// verdict is the outcome of a run's correctness checks.
type verdict struct {
	deliveries int
	expected   int
	falseN     int
	dupN       int
	corruptN   int
	unknownN   int
	problems   []string
}

func (v *verdict) ok() bool { return len(v.problems) == 0 }

// check totals the slots and looks for duplicate deliveries of one
// (event, subscriber) pair. Call it once the program has stopped.
func (r *recorder) check() verdict {
	v := verdict{expected: r.in.want}
	seen := make([]bool, len(r.in.events))
	for i := range r.slots {
		s := &r.slots[i]
		v.falseN += s.falseN
		v.corruptN += s.corruptN
		v.unknownN += s.unknownN
		for _, d := range s.dl {
			if seen[d.ev] {
				v.dupN++
			} else {
				v.deliveries++
			}
			seen[d.ev] = true
		}
		for _, d := range s.dl {
			seen[d.ev] = false
		}
	}
	if v.falseN > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d false deliveries (filter does not match)", v.falseN))
	}
	if v.unknownN > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d deliveries of events nobody published", v.unknownN))
	}
	if v.dupN > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d duplicate deliveries", v.dupN))
	}
	if v.corruptN > 0 {
		v.problems = append(v.problems, fmt.Sprintf("%d deliveries differ from the published bytes", v.corruptN))
	}
	if v.deliveries == 0 {
		v.problems = append(v.problems, "no deliveries")
	}
	return v
}

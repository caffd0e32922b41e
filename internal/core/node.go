package core

import (
	"math/rand"
	"sort"
	"time"

	"fairgossip/internal/fairness"
	"fairgossip/internal/gossip"
	"fairgossip/internal/membership"
	"fairgossip/internal/proto"
	"fairgossip/internal/pubsub"
	"fairgossip/internal/simnet"
)

// Node is one FairGossip process: the simulator's driver of the shared
// peer core (proto.Peer), which it embeds — publication, delivery,
// receive, the content-mode round and the lever update are the Peer's,
// and so are the promoted OnDeliver hook, Fanout, Batch and Interest.
// Node adds what only the simulator runs: topic groups and walks,
// semantic bias, cheat padding, Cyclon shuffles over simnet and view
// repair. It implements simnet.Handler; the cluster drives its Round
// method from a jittered per-node ticker.
//
// Nodes are single-threaded: all methods run on the simulator goroutine.
type Node struct {
	proto.Peer

	net        *simnet.Network
	cfg        Config
	groups     map[string]*topicGroup // topic-mode groups this node is in
	groupOrder []string               // sorted group topics (deterministic rounds)
	active     bool

	// Cheat makes this node pad every outgoing gossip message with
	// cfg.JunkPadding bytes of worthless data (EXP-A6).
	Cheat bool

	// FreeRide makes this node stop forwarding gossip while it keeps
	// receiving and delivering — the classic defector the fairness
	// machinery exists to expose. Membership maintenance continues, so
	// the node stays reachable (and keeps benefiting).
	FreeRide bool

	// walkRelays counts subscription/publication walks this node relayed
	// for others — §5.1's maintenance burden.
	walkRelays uint64
	// walksSent counts walks this node originated.
	walksSent uint64

	// peerFPs remembers other peers' interest fingerprints for semantic
	// partner bias (semantic.go).
	peerFPs map[simnet.NodeID]uint64

	// pool recycles gossip envelopes (pool.go). The Peer selects events
	// into its scratch and buildGossip copies the batch into the
	// envelope's own recycled backing, so the scratch can be reused next
	// round while the envelope is still in flight.
	pool *msgPool

	// auditSink charges novelty audits. The cluster installs one that
	// applies same-shard audits immediately and defers cross-shard audits
	// to the round barrier, where they are applied in fixed shard order —
	// the one write that would otherwise race another shard's controller
	// read and break fixed-seed reproducibility.
	auditSink func(from, useful, junk int)
}

// topicGroup is this node's slice of one per-topic gossip group.
type topicGroup struct {
	view    *membership.View
	buffer  *gossip.Buffer
	retryIn int // rounds until the join walk is retried while the view is empty
}

func newNode(id simnet.NodeID, net *simnet.Network, ledger *fairness.Ledger, cfg Config, n int, rng *rand.Rand,
	pool *msgPool, auditSink func(from, useful, junk int)) *Node {
	nd := &Node{
		Peer: proto.Peer{
			Self:          id,
			Rng:           rng,
			Ledger:        ledger,
			Seen:          gossip.NewSeenSet(cfg.SeenCap),
			Buffer:        gossip.NewBuffer(cfg.BufferCap, cfg.BufferMaxAge),
			Ctrl:          buildController(cfg, n),
			Policy:        cfg.Policy,
			ControlWindow: cfg.ControlWindow,
		},
		net:       net,
		cfg:       cfg,
		groups:    make(map[string]*topicGroup),
		active:    true,
		pool:      pool,
		auditSink: auditSink,
	}
	if cfg.Membership == MemberCyclon {
		nd.Cyclon = membership.NewCyclon(membership.NewView(id, cfg.ViewCap), cfg.ShuffleLen)
	} else {
		nd.Full = membership.FullSampler{Self: id, N: n}
	}
	return nd
}

// ID returns the node's network identity.
func (nd *Node) ID() simnet.NodeID { return nd.Self }

// Now returns the virtual time on the node's own kernel. Inside a
// callback such as OnDeliver it is the instant of the event being
// handled, at any shard count.
func (nd *Node) Now() time.Duration { return nd.net.Sim().Now() }

// Active reports whether the node is participating.
func (nd *Node) Active() bool { return nd.active }

// WalkRelays returns how many subscription/publication walks this node
// relayed on behalf of others.
func (nd *Node) WalkRelays() uint64 { return nd.walkRelays }

// SetPopulation updates the idealised full sampler's population after a
// join (no-op under Cyclon, whose views learn of joiners through
// charged shuffle traffic instead).
func (nd *Node) SetPopulation(n int) { nd.Full.N = n }

// bootstrapView seeds the overlay view (cluster wiring).
func (nd *Node) bootstrapView(ids []simnet.NodeID) {
	if nd.Cyclon == nil {
		return
	}
	for _, id := range ids {
		nd.Cyclon.View().Add(id)
	}
}

// send transmits a wire message and charges the ledger.
func (nd *Node) send(to simnet.NodeID, m *wireMsg, class fairness.Class) {
	size := m.size()
	nd.net.Send(nd.Self, to, m, size)
	nd.Ledger.AddSend(int(nd.Self), class, size)
}

// --- Public API: the three operations of §2 -------------------------------

// Subscribe registers a filter and returns its subscription ID. In topic
// mode, plain topic filters additionally join the topic's gossip group
// through a random-walk subscription (§5.1).
func (nd *Node) Subscribe(f pubsub.Filter) pubsub.SubID {
	id := nd.Peer.Subscribe(f)
	if nd.cfg.Mode == ModeTopics {
		if topic, ok := pubsub.TopicOf(f); ok {
			nd.joinGroup(topic)
		}
	}
	return id
}

// Unsubscribe removes a subscription. In topic mode the node drops out of
// gossip groups no remaining filter selects; its stale view entries age
// out of other members' views.
func (nd *Node) Unsubscribe(id pubsub.SubID) bool {
	if !nd.Peer.Unsubscribe(id) {
		return false
	}
	if nd.cfg.Mode == ModeTopics {
		for _, topic := range nd.groupOrder {
			if !nd.Interest().HasTopic(topic) {
				delete(nd.groups, topic)
			}
		}
		nd.rebuildGroupOrder()
	}
	return true
}

// rebuildGroupOrder re-derives the sorted topic list from the group map.
func (nd *Node) rebuildGroupOrder() {
	nd.groupOrder = nd.groupOrder[:0]
	for topic := range nd.groups {
		nd.groupOrder = append(nd.groupOrder, topic)
	}
	sort.Strings(nd.groupOrder)
}

// Publish originates an event on the given topic. In topic mode a
// publisher that is not itself subscribed hands the event to a group
// member via a publication walk.
func (nd *Node) Publish(topic string, attrs []pubsub.Attr, payload []byte) pubsub.EventID {
	ev := nd.Peer.Publish(topic, attrs, payload)
	if nd.cfg.Mode == ModeTopics {
		if g, ok := nd.groups[topic]; ok {
			g.buffer.Insert(ev)
		} else {
			nd.publishWalk(ev)
		}
	} else {
		nd.Buffer.Insert(ev)
	}
	return ev.ID
}

// --- Round logic -----------------------------------------------------------

// Round executes one gossip period: membership maintenance, dissemination
// in every group (or the flat overlay), buffer aging, and periodically a
// controller update.
func (nd *Node) Round() {
	if !nd.active {
		return
	}
	round := nd.BeginRound()
	if nd.Cyclon != nil && round%nd.cfg.ShuffleEvery == 0 {
		nd.initiateShuffle()
	}
	switch {
	case nd.cfg.Mode == ModeTopics:
		nd.roundTopics(round)
	case nd.cfg.SemanticBias > 0:
		nd.roundSemantic()
	default:
		nd.Disseminate((*gossipOut)(nd), nd.FreeRide)
	}
	nd.EndRound()
}

// gossipOut is the Node as the content-mode proto.Outbox: one shared
// gossip message to every partner.
type gossipOut Node

func (o *gossipOut) Push(to []simnet.NodeID, events []*pubsub.Event) {
	(*Node)(o).sendGossipAll(to, "", events, nil)
}

// roundSemantic is the content-mode round under semantic bias. It sends
// topic-coherent sub-batches: a mixed batch has a blurred fingerprint
// that matches everyone, so the bias needs per-topic messages to have a
// signal.
func (nd *Node) roundSemantic() {
	if !nd.FreeRide {
		for _, group := range splitByTopic(nd.SelectEvents(nd.Buffer)) {
			fp := batchFingerprint(group)
			for _, q := range nd.biasedPeers(nd.Fanout(), fp) {
				nd.sendGossip(q, "", group, nil)
			}
		}
	}
	nd.Buffer.Tick()
}

// splitByTopic partitions a batch into per-topic groups, in sorted topic
// order for determinism.
func splitByTopic(events []*pubsub.Event) [][]*pubsub.Event {
	byTopic := make(map[string][]*pubsub.Event)
	topics := make([]string, 0, 4)
	for _, ev := range events {
		if _, ok := byTopic[ev.Topic]; !ok {
			topics = append(topics, ev.Topic)
		}
		byTopic[ev.Topic] = append(byTopic[ev.Topic], ev)
	}
	sort.Strings(topics)
	out := make([][]*pubsub.Event, 0, len(topics))
	for _, t := range topics {
		out = append(out, byTopic[t])
	}
	return out
}

func (nd *Node) roundTopics(round int) {
	minView := nd.cfg.TopicViewCap / 4
	if minView < 1 {
		minView = 1
	}
	for _, topic := range nd.groupOrder {
		g := nd.groups[topic]
		// Keep walking while the group view is undersized: a join that
		// terminated at another isolated newcomer would otherwise leave
		// a disconnected clique that never merges with the main group.
		if g.view.Len() < minView {
			if g.retryIn <= 0 {
				nd.subscribeWalk(topic)
				if g.view.Len() == 0 {
					g.retryIn = 4
				} else {
					g.retryIn = 8
				}
			} else {
				g.retryIn--
			}
		}
		// A free-rider withholds events but keeps heartbeating its ads:
		// membership maintenance continues, so it stays in group views
		// (and keeps benefiting) while contributing nothing.
		var events []*pubsub.Event
		if !nd.FreeRide {
			events = nd.SelectEvents(g.buffer)
		}
		heartbeat := round%4 == 0
		if len(events) == 0 && !heartbeat {
			g.buffer.Tick()
			continue
		}
		ads := nd.groupAds(g)
		nd.sendGossipAll(g.view.Sample(nd.Rng, nd.Fanout()), topic, events, ads)
		g.buffer.Tick()
	}
}

// groupAds samples a few known members (plus self) to piggyback, keeping
// group views alive without a directory service.
func (nd *Node) groupAds(g *topicGroup) []membership.Entry {
	ads := make([]membership.Entry, 0, nd.cfg.AdLen+1)
	for _, id := range g.view.Sample(nd.Rng, nd.cfg.AdLen) {
		ads = append(ads, membership.Entry{ID: id, Age: 1})
	}
	return append(ads, membership.Entry{ID: nd.Self, Age: 0})
}

// buildGossip assembles one pooled gossip wire message. It comes back
// with one owner reference; the send paths drop it after the fanout.
func (nd *Node) buildGossip(topic string, events []*pubsub.Event, ads []membership.Entry) *wireMsg {
	m := nd.pool.get()
	m.Kind = kindGossip
	m.Topic = topic
	m.Events = append(m.Events[:0], events...)
	m.Ads = append(m.Ads[:0], ads...)
	if nd.Cheat && nd.cfg.JunkPadding > 0 {
		m.Junk = nd.cfg.JunkPadding
	}
	if nd.cfg.SemanticBias > 0 {
		m.FP = interestFingerprint(nd.Interest())
		m.FPAds = nd.fpAds(2)
	}
	return m
}

func (nd *Node) sendGossip(to simnet.NodeID, topic string, events []*pubsub.Event, ads []membership.Entry) {
	m := nd.buildGossip(topic, events, ads)
	nd.send(to, m, fairness.ClassApp)
	m.Release()
}

// sendGossipAll fans one batch out to every peer. The network passes
// payloads by reference and receivers treat them as read-only, so outside
// semantic mode a single wireMsg (and a single size computation) is
// shared across the whole fanout instead of allocating one per peer.
func (nd *Node) sendGossipAll(peers []simnet.NodeID, topic string, events []*pubsub.Event, ads []membership.Entry) {
	if len(peers) == 0 {
		return
	}
	if nd.cfg.SemanticBias > 0 {
		// fpAds draws from the node's RNG: keep the historical per-peer
		// construction so fixed-seed runs stay bit-identical.
		for _, q := range peers {
			nd.sendGossip(q, topic, events, ads)
		}
		return
	}
	m := nd.buildGossip(topic, events, ads)
	size := m.size()
	for _, q := range peers {
		nd.net.Send(nd.Self, q, m, size)
		nd.Ledger.AddSend(int(nd.Self), fairness.ClassApp, size)
	}
	m.Release()
}

// --- Membership ------------------------------------------------------------

func (nd *Node) initiateShuffle() {
	target, offer, ok := nd.Cyclon.InitiateShuffle(nd.Rng)
	if !ok {
		return
	}
	nd.send(target, &wireMsg{Kind: kindShuffle, Entries: offer}, fairness.ClassInfra)
}

// --- Topic-group joining (§5.1) ---------------------------------------------

func (nd *Node) joinGroup(topic string) {
	if _, ok := nd.groups[topic]; ok {
		return
	}
	nd.groups[topic] = &topicGroup{
		view:   membership.NewView(nd.Self, nd.cfg.TopicViewCap),
		buffer: gossip.NewBuffer(nd.cfg.BufferCap, nd.cfg.BufferMaxAge),
	}
	nd.rebuildGroupOrder()
	nd.subscribeWalk(topic)
}

// subscribeWalk launches a random walk that terminates at some subscriber
// of the topic, which replies with group-bootstrap entries.
func (nd *Node) subscribeWalk(topic string) {
	contacts := nd.Partners(1)
	if len(contacts) == 0 {
		return
	}
	nd.walksSent++
	nd.send(contacts[0], &wireMsg{
		Kind:   kindSubWalk,
		Topic:  topic,
		Origin: nd.Self,
		Hops:   nd.cfg.WalkHopLimit,
	}, fairness.ClassInfra)
}

// publishWalk hands an event from a non-subscribed publisher to the
// topic's group.
func (nd *Node) publishWalk(ev *pubsub.Event) {
	contacts := nd.Partners(1)
	if len(contacts) == 0 {
		return
	}
	nd.walksSent++
	nd.send(contacts[0], &wireMsg{
		Kind:   kindPubWalk,
		Topic:  ev.Topic,
		Events: []*pubsub.Event{ev},
		Origin: nd.Self,
		Hops:   nd.cfg.WalkHopLimit,
	}, fairness.ClassInfra)
}

// --- Churn (§3.2 penalty) ----------------------------------------------------

// Leave takes the node offline without notice.
func (nd *Node) Leave() {
	nd.active = false
	nd.net.SetUp(nd.Self, false)
}

// LeaveGracefully departs with notice — the sim mirror of the live
// runtime's Cluster.Leave. Under Cyclon membership the node hands up to
// ShuffleLen of its freshest view entries to every view neighbour in a
// charged kindLeave message before going offline, so the overlay loses
// an address without losing degree; under the full sampler there are no
// views to repair and the departure reduces to Leave.
func (nd *Node) LeaveGracefully() {
	if !nd.active {
		return
	}
	if nd.Cyclon != nil {
		nd.Cyclon.HandOff(func(to simnet.NodeID, hand []membership.Entry) {
			nd.send(to, &wireMsg{Kind: kindLeave, Entries: hand}, fairness.ClassInfra)
		})
	}
	nd.Leave()
}

// Rejoin brings the node back, repairing its overlay view through the
// bootstrap contact and charging the configured instability penalty.
func (nd *Node) Rejoin(bootstrap simnet.NodeID) {
	nd.active = true
	nd.net.SetUp(nd.Self, true)
	if nd.cfg.RepairPenalty > 0 {
		nd.Ledger.AddChurnPenalty(int(nd.Self), nd.cfg.RepairPenalty)
	}
	if nd.Cyclon != nil {
		nd.send(bootstrap, &wireMsg{Kind: kindViewRepair}, fairness.ClassInfra)
	}
	// Re-join all topic groups (stale views may point to departed peers).
	for _, topic := range nd.groupOrder {
		if nd.groups[topic].view.Len() == 0 {
			nd.subscribeWalk(topic)
		}
	}
}

// --- Receive path ------------------------------------------------------------

// HandleMessage implements simnet.Handler.
func (nd *Node) HandleMessage(msg simnet.Message) {
	m, ok := msg.Payload.(*wireMsg)
	if !ok || !nd.active {
		return
	}
	switch m.Kind {
	case kindGossip:
		nd.handleGossip(msg.From, m)
	case kindShuffle:
		if nd.Cyclon == nil {
			return
		}
		reply := nd.Cyclon.HandleShuffle(nd.Rng, msg.From, m.Entries)
		nd.send(msg.From, &wireMsg{Kind: kindShuffleReply, Entries: reply}, fairness.ClassInfra)
	case kindShuffleReply:
		if nd.Cyclon == nil {
			return
		}
		nd.Cyclon.HandleReply(msg.From, m.Entries)
	case kindSubWalk:
		nd.handleSubWalk(msg.From, m)
	case kindSubAck:
		nd.handleSubAck(m)
	case kindPubWalk:
		nd.handlePubWalk(msg.From, m)
	case kindViewRepair:
		if nd.Cyclon == nil {
			return
		}
		nd.send(msg.From, &wireMsg{
			Kind:    kindViewRepairAck,
			Entries: nd.Cyclon.View().Entries(),
		}, fairness.ClassInfra)
		// Knowing the requester is alive is free information: remember it,
		// so a joining node becomes reachable the moment its seed answers.
		nd.Cyclon.View().Add(msg.From)
	case kindViewRepairAck:
		if nd.Cyclon == nil {
			return
		}
		for _, e := range m.Entries {
			nd.Cyclon.View().AddAged(e)
		}
	case kindLeave:
		if nd.Cyclon == nil {
			return
		}
		// Forget the leaver, adopt the replacement contacts it handed over.
		nd.Cyclon.View().Remove(msg.From)
		for _, e := range m.Entries {
			if e.ID != msg.From {
				nd.Cyclon.View().AddAged(e)
			}
		}
	}
}

func (nd *Node) handleGossip(from simnet.NodeID, m *wireMsg) {
	if nd.cfg.SemanticBias > 0 {
		nd.rememberFingerprint(from, m.FP)
		for _, ad := range m.FPAds {
			nd.rememberFingerprint(ad.ID, ad.FP)
		}
	}
	fwd := nd.Buffer
	if nd.cfg.Mode == ModeTopics {
		// Fair-by-structure: only group members re-forward. Events for
		// groups we are not in are delivered (if interesting) but never
		// buffered for forwarding.
		fwd = nil
		if g := nd.groups[m.Topic]; g != nil {
			for _, ad := range m.Ads {
				g.view.AddAged(ad)
			}
			fwd = g.buffer
		}
	}
	novel, dup := nd.Receive(m, fwd)
	// Novelty audit (§5.2 bias resistance): grade the sender's bytes.
	// This is the one ledger write aimed at ANOTHER process's account;
	// it goes through auditSink so a remote shard's sender's controller
	// never races it mid-window.
	nd.auditSink(int(from), novel, dup+m.Junk)
}

func (nd *Node) handleSubWalk(from simnet.NodeID, m *wireMsg) {
	if g, ok := nd.groups[m.Topic]; ok {
		// We are a subscriber: answer with bootstrap entries and adopt
		// the new member.
		entries := make([]membership.Entry, 0, nd.cfg.ShuffleLen+1)
		for _, id := range g.view.Sample(nd.Rng, nd.cfg.ShuffleLen) {
			entries = append(entries, membership.Entry{ID: id, Age: 1})
		}
		entries = append(entries, membership.Entry{ID: nd.Self, Age: 0})
		nd.send(m.Origin, &wireMsg{Kind: kindSubAck, Topic: m.Topic, Entries: entries}, fairness.ClassInfra)
		g.view.Add(m.Origin)
		return
	}
	// Not interested: relay — the §5.1 maintenance burden.
	if m.Hops <= 1 {
		return // walk dies
	}
	nd.walkRelays++
	next := nd.Partners(1)
	if len(next) == 0 || next[0] == from {
		next = nd.Partners(1)
	}
	if len(next) == 0 {
		return
	}
	fwd := *m
	fwd.Hops = m.Hops - 1
	fwd.pool, fwd.refs = nil, 0 // the forwarded copy is plain-allocated
	nd.send(next[0], &fwd, fairness.ClassInfra)
}

func (nd *Node) handleSubAck(m *wireMsg) {
	g, ok := nd.groups[m.Topic]
	if !ok {
		return // unsubscribed while the walk was in flight
	}
	for _, e := range m.Entries {
		g.view.AddAged(e)
	}
}

func (nd *Node) handlePubWalk(from simnet.NodeID, m *wireMsg) {
	if g, ok := nd.groups[m.Topic]; ok {
		nd.Receive(m, g.buffer)
		return
	}
	if m.Hops <= 1 {
		return
	}
	nd.walkRelays++
	next := nd.Partners(1)
	if len(next) == 0 || next[0] == from {
		next = nd.Partners(1)
	}
	if len(next) == 0 {
		return
	}
	fwd := *m
	fwd.Hops = m.Hops - 1
	fwd.pool, fwd.refs = nil, 0 // the forwarded copy is plain-allocated
	nd.send(next[0], &fwd, fairness.ClassInfra)
}

var _ simnet.Handler = (*Node)(nil)

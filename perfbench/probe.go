package main

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairgossip/internal/transport"
	"fairgossip/internal/wire"
)

// Bounds on the envelopes a traced run keeps for the replay.
const (
	maxCaptured      = 512
	maxCapturedBytes = 16 << 20
	captureEvery     = 4 // keep every 4th freshly encoded envelope
)

// netProbe observes a live cluster's transport from outside: it wraps
// the transport factory, times every Send and every receiving handler
// call, counts envelopes by kind, and keeps a sample of encoded envelopes
// for the layer replay. mutate, when set, rewrites every outgoing
// envelope (the integrity test corrupts payloads with it).
//
// While the cluster runs the probe only appends timestamps: sends to
// their sending endpoint (one peer goroutine uses each), receipts to
// their receiving peer under that peer's own lock. Sends and receipts
// are matched into hops after the run, so the probe adds as little as
// it can to the Send it times — on the in-process transport the
// receiving handler runs inside Send.
type netProbe struct {
	tr     *tracer
	base   time.Time
	mutate func([]byte) []byte

	sendErrs atomic.Int64
	encodes  atomic.Int64 // freshly encoded envelopes (a fanout shares one)

	mu       sync.Mutex
	eps      []*probedEndpoint
	rx       []*rxState // per receiving peer, fixed when the net is built
	captured [][]byte
	capBytes int
	encSeen  atomic.Int64
}

// hopKey identifies an envelope in flight to one receiver: its sender,
// its length, the 8 bytes after the header (the first event's id, or the
// first view entries) and its last 8 bytes. Two envelopes with equal
// keys in flight to one peer at once are matched first in, first out.
type hopKey struct {
	from, n    int32
	head, tail uint64
}

func envelopeKey(from int, buf []byte) hopKey {
	k := hopKey{from: int32(from), n: int32(len(buf))}
	if len(buf) >= wire.HeaderSize+8 {
		k.head = binary.BigEndian.Uint64(buf[wire.HeaderSize:])
		k.tail = binary.BigEndian.Uint64(buf[len(buf)-8:])
	}
	return k
}

type sendRec struct {
	to         int32
	failed     bool
	key        hopKey
	start, end time.Duration
}

type recvRec struct {
	key        hopKey
	start, end time.Duration
}

// rxState is one receiving peer's receipts.
type rxState struct {
	mu     sync.Mutex
	recvs  []recvRec
	events int // event records in received event envelopes
	offers int // received Cyclon shuffle offers
}

func newProbe(tr *tracer) *netProbe {
	return &netProbe{tr: tr, base: tr.timeBase()}
}

// wrap returns the probed version of a transport factory.
func (p *netProbe) wrap(f transport.Factory) transport.Factory {
	return func(n int) (transport.Net, error) {
		inner, err := f(n)
		if err != nil {
			return nil, err
		}
		rx := make([]*rxState, n)
		for i := range rx {
			rx[i] = &rxState{}
		}
		p.mu.Lock()
		p.eps, p.rx = nil, rx
		p.mu.Unlock()
		return &probedNet{inner: inner, p: p, rx: rx}, nil
	}
}

type probedNet struct {
	inner transport.Net
	p     *netProbe
	rx    []*rxState
}

func (pn *probedNet) Attach(id int, h transport.Handler) (transport.Transport, error) {
	if id >= len(pn.rx) {
		return nil, fmt.Errorf("probe: peer %d joined a %d-peer net", id, len(pn.rx))
	}
	p, rx := pn.p, pn.rx[id]
	tr, err := pn.inner.Attach(id, func(buf []byte) { p.handle(rx, buf, h) })
	if err != nil {
		return nil, err
	}
	e := &probedEndpoint{inner: tr, id: id, p: p}
	p.mu.Lock()
	p.eps = append(p.eps, e)
	p.mu.Unlock()
	return e, nil
}

func (pn *probedNet) Close() error { return pn.inner.Close() }

type probedEndpoint struct {
	inner transport.Transport
	id    int
	p     *netProbe
	last  *byte     // backing array of the previous Send: a fanout reuses it
	sends []sendRec // written only by the sending peer's goroutine
}

func (e *probedEndpoint) LocalAddr() string { return e.inner.LocalAddr() }
func (e *probedEndpoint) Close() error      { return e.inner.Close() }

func (e *probedEndpoint) Send(to int, buf []byte) error {
	p := e.p
	if len(buf) > 0 && &buf[0] != e.last {
		e.last = &buf[0]
		p.encodes.Add(1)
		if p.encSeen.Add(1)%captureEvery == 0 {
			p.capture(buf)
		}
	}
	if p.mutate != nil {
		buf = p.mutate(buf)
	}
	start := time.Since(p.base)
	err := e.inner.Send(to, buf)
	end := time.Since(p.base)
	if err != nil {
		p.sendErrs.Add(1)
	}
	e.sends = append(e.sends, sendRec{to: int32(to), failed: err != nil, key: envelopeKey(e.id, buf), start: start, end: end})
	return err
}

// handle runs on the receiving side around the cluster's own handler.
// Only the receiving side reads buf after h, and only to hash it.
func (p *netProbe) handle(rx *rxState, buf []byte, h transport.Handler) {
	start := time.Since(p.base)
	h(buf)
	end := time.Since(p.base)
	var from, events, offers int
	if len(buf) >= wire.HeaderSize {
		switch buf[3] {
		case wire.KindEvents:
			events = int(binary.BigEndian.Uint16(buf[8:10]))
		case wire.KindShuffleOffer:
			offers = 1
		}
		from = int(binary.BigEndian.Uint32(buf[4:8]))
	}
	r := recvRec{key: envelopeKey(from, buf), start: start, end: end}
	rx.mu.Lock()
	rx.recvs = append(rx.recvs, r)
	rx.events += events
	rx.offers += offers
	rx.mu.Unlock()
}

func (p *netProbe) capture(buf []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.captured) >= maxCaptured || p.capBytes+len(buf) > maxCapturedBytes {
		return
	}
	p.captured = append(p.captured, append([]byte(nil), buf...))
	p.capBytes += len(buf)
}

// transportStats is what the probe measured, once the cluster stopped.
type transportStats struct {
	sendNS, sizes, hopNS []float64
	sends                int
	events, offers       int // received event records and shuffle offers
}

// finish matches every receipt to the earliest unmatched successful send
// of the same envelope to the same peer, records the send and handler
// spans (a handler's parent is its send), and returns the measurements.
// Call it after the cluster has stopped.
func (p *netProbe) finish() transportStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	var st transportStats
	type ref struct {
		start time.Duration
		span  int32
	}
	pending := make([]map[hopKey][]ref, len(p.rx))
	for i := range pending {
		pending[i] = make(map[hopKey][]ref)
	}
	var all []sendRec
	for _, e := range p.eps {
		for _, s := range e.sends {
			st.sendNS = append(st.sendNS, float64(s.end-s.start))
			st.sizes = append(st.sizes, float64(s.key.n))
		}
		all = append(all, e.sends...)
	}
	st.sends = len(all)
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	for _, s := range all {
		id := p.tr.add(span{kind: spanSend, start: s.start, end: s.end, parent: -1, event: -1, peer: s.key.from})
		if !s.failed && int(s.to) < len(pending) {
			pending[s.to][s.key] = append(pending[s.to][s.key], ref{start: s.start, span: id})
		}
	}
	for to, rx := range p.rx {
		rx.mu.Lock()
		recvs := rx.recvs
		st.events += rx.events
		st.offers += rx.offers
		rx.mu.Unlock()
		sort.Slice(recvs, func(i, j int) bool { return recvs[i].start < recvs[j].start })
		for _, r := range recvs {
			parent := int32(-1)
			if q := pending[to][r.key]; len(q) > 0 && q[0].start <= r.start {
				pending[to][r.key] = q[1:]
				st.hopNS = append(st.hopNS, float64(r.start-q[0].start))
				parent = q[0].span
			}
			p.tr.add(span{kind: spanHandle, start: r.start, end: r.end, parent: parent, event: -1, peer: int32(to)})
		}
	}
	return st
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced run records spans at the boundaries the benchmark can see
// from outside the program: its own Publish calls (the root of every
// event's spans), the deliveries they caused, each Send and receiving
// handler call through the wrapped transport factory, and each sim
// RunRounds(1) window. Spans live in memory and are written out, one
// JSON array per line, when the run ends.

type spanKind uint8

const (
	spanPublish spanKind = iota
	spanDeliver
	spanSend
	spanHandle
	spanWindow
)

var spanNames = [...]string{"publish", "deliver", "transport.send", "transport.handle", "core.window"}

type span struct {
	kind       spanKind
	start, end time.Duration // since the tracer's time base
	parent     int32         // index of the causing span, -1 for roots
	event      int32         // event index shared by an event's spans, -1 for none
	peer       int32         // acting peer or node, -1 for none
}

// maxSpansPerKind bounds the spans of each kind one traced run keeps;
// later ones are only counted.
const maxSpansPerKind = 100_000

// tracer collects spans. A nil *tracer records nothing, so untraced
// runs call the same methods for free.
type tracer struct {
	base    time.Time
	mu      sync.Mutex
	spans   []span
	kept    [len(spanNames)]int
	dropped int
	pubSpan []int32 // event index -> its publish span, -1 if not kept
}

func newTracer(events int) *tracer {
	t := &tracer{base: time.Now(), pubSpan: make([]int32, events)}
	for i := range t.pubSpan {
		t.pubSpan[i] = -1
	}
	return t
}

// timeBase is the instant all span times of a run are measured from.
func (t *tracer) timeBase() time.Time {
	if t == nil {
		return time.Now()
	}
	return t.base
}

func (t *tracer) add(s span) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.kept[s.kind] >= maxSpansPerKind {
		t.dropped++
		return -1
	}
	t.kept[s.kind]++
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

func (t *tracer) publish(ev int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.pubSpan[ev] = t.add(span{kind: spanPublish, start: start, end: end, parent: -1, event: int32(ev), peer: -1})
}

// deliver records a delivery as a child of its event's publish span; it
// starts when the publish call did.
func (t *tracer) deliver(ev, sub int, at time.Duration) {
	if t == nil {
		return
	}
	parent := t.pubSpan[ev]
	start := at
	if parent >= 0 {
		start = t.spans[parent].start
	}
	t.add(span{kind: spanDeliver, start: start, end: at, parent: parent, event: int32(ev), peer: int32(sub)})
}

func (t *tracer) window(round int, start, end time.Duration) {
	if t == nil {
		return
	}
	t.add(span{kind: spanWindow, start: start, end: end, parent: -1, event: -1, peer: int32(round)})
}

// write stores the spans as JSON lines [name, start_ns, end_ns,
// parent, event, peer] in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "[%q,%d,%d,%d,%d,%d]\n", spanNames[s.kind], s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.event, s.peer)
	}
	if t.dropped > 0 {
		fmt.Fprintf(bw, "[\"dropped\",0,0,-1,-1,%d]\n", t.dropped)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

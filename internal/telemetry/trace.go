// Package telemetry is the observability layer of the reproduction:
// request-scoped trace spans carried on the context, a labeled metrics
// registry per node, and the render/export surfaces the debug
// endpoints and the experiment harness read through.
//
// A Trace decomposes one operation (a retrieval, a publication, a
// republish cycle) into a tree of Spans — discover, first-provider,
// fetch, the DHT walk, each WANT-HAVE wave — with structured Events
// underneath, down to every transport RPC. Span IDs, timestamps and
// measured durations all derive from the node's time source (its clock,
// Source.Since, and a per-trace sequence), so in a simulated run the
// renders and the derived statistics (DiscoverP99) are byte-identical
// across runs of the same seed and can be golden-pinned.
//
// The whole surface is nil-safe: methods on a nil *Registry return nil
// metrics, and methods on nil *Counter/*Gauge/*Histogram no-op, so
// instrumented code never guards on whether telemetry is wired. The
// debug endpoints (debug.go) expose the registry at /debug/metrics and
// the most recent trace tree at /debug/trace/last.
package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/simtime"
)

// Attr is one ordered key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// A builds an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is one structured record inside a span: a DHT walk hop, a
// transport RPC, a Bitswap HAVE.
type Event struct {
	Seq   int // per-trace sequence (arrival order)
	Name  string
	At    time.Time     // trace-clock instant
	Dur   time.Duration // measured sim-accurate latency, zero when n/a
	Attrs []Attr
}

// Span is one timed operation inside a trace. All methods are safe on
// a nil receiver, so un-traced call paths cost a nil check.
type Span struct {
	tr *Trace

	ID     int // per-trace sequence number (deterministic on serial paths)
	Parent int // parent span ID, 0 for the root
	Name   string
	Start  time.Time     // trace-clock instant the span opened
	Stop   time.Time     // trace-clock instant End ran (zero while open)
	Wall   time.Duration // sim-accurate elapsed time (human renders only)
	Attrs  []Attr
	Events []Event

	wallStart time.Time
	children  []*Span
	ended     bool
}

// End closes the span, recording its sim-accurate elapsed time.
// Closing twice is a no-op, so racers can defer End unconditionally.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.Stop = s.tr.src.Now()
	s.Wall = s.tr.src.Since(s.wallStart)
	s.tr.open--
}

// Annotate attaches a key/value annotation to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.Attrs = append(s.Attrs, Attr{key, value})
	s.tr.mu.Unlock()
}

// Event records a structured event on the span.
func (s *Span) Event(name string, attrs ...Attr) { s.EventDur(name, 0, attrs...) }

// EventDur records an event carrying a measured sim-accurate duration
// (a transport RPC's latency). Events may be appended from concurrent
// goroutines.
func (s *Span) EventDur(name string, dur time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.seq++
	s.Events = append(s.Events, Event{Seq: s.tr.seq, Name: name, At: s.tr.src.Now(), Dur: dur, Attrs: attrs})
	s.tr.mu.Unlock()
}

// Trace is one operation's span tree.
type Trace struct {
	Op string // the root operation ("retrieve", "publish", "republish")
	ID int64  // per-recorder sequence

	mu    sync.Mutex
	src   simtime.Source
	seq   int
	spans []*Span
	root  *Span
	open  int
}

func (t *Trace) startSpan(parent *Span, name string, attrs ...Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	sp := &Span{
		tr: t, ID: t.seq, Name: name,
		Start: t.src.Now(), wallStart: t.src.Stamp(), Attrs: attrs,
	}
	if parent != nil {
		sp.Parent = parent.ID
		parent.children = append(parent.children, sp)
	}
	t.spans = append(t.spans, sp)
	if t.root == nil {
		t.root = sp
	}
	t.open++
	return sp
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root
}

// OpenSpans returns the number of spans started but not yet ended —
// the leak detector the cancellation tests assert on.
func (t *Trace) OpenSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// FindSpan returns the first span (in creation order) with the given
// name, or nil.
func (t *Trace) FindSpan(name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, sp := range t.spans {
		if sp.Name == name {
			return sp
		}
	}
	return nil
}

// SpanWall returns a span's sim-accurate elapsed time under the trace
// lock (End may race with a reader on another goroutine).
func (t *Trace) SpanWall(sp *Span) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return sp.Wall
}

// spanRecord is the JSONL export schema: one line per span.
type spanRecord struct {
	Trace  int64         `json:"trace"`
	Op     string        `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	Stop   *time.Time    `json:"stop,omitempty"`
	WallUS int64         `json:"wall_us,omitempty"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Events []eventRecord `json:"events,omitempty"`
}

type eventRecord struct {
	Seq   int       `json:"seq,omitempty"`
	Name  string    `json:"name"`
	At    time.Time `json:"at"`
	DurUS int64     `json:"dur_us,omitempty"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// WriteJSONL exports the full trace, one JSON object per span in
// creation order, including the measured durations and latencies.
func (t *Trace) WriteJSONL(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		rec := spanRecord{
			Trace: t.ID, Op: t.Op, ID: sp.ID, Parent: sp.Parent, Name: sp.Name,
			Start: sp.Start, WallUS: sp.Wall.Microseconds(),
			Attrs: sp.Attrs,
		}
		if sp.ended {
			stop := sp.Stop
			rec.Stop = &stop
		}
		for _, ev := range sp.Events {
			rec.Events = append(rec.Events, eventRecord{
				Seq: ev.Seq, Name: ev.Name, At: ev.At,
				DurUS: ev.Dur.Microseconds(), Attrs: ev.Attrs,
			})
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Tree renders the span tree as an indented timeline with measured
// durations — the human view of one slow retrieval.
func (t *Trace) Tree() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "trace #%d %s\n", t.ID, t.Op)
	if t.root != nil {
		t.renderSpan(&b, t.root, 0)
	}
	return b.String()
}

func (t *Trace) renderSpan(b *strings.Builder, sp *Span, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s #%d", indent, sp.Name, sp.ID)
	if sp.ended {
		fmt.Fprintf(b, " [%s]", fmtSimDur(sp.Wall))
	}
	for _, a := range sp.Attrs {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, ev := range sp.Events {
		fmt.Fprintf(b, "%s  · %s", indent, ev.Name)
		for _, a := range ev.Attrs {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
		}
		if ev.Dur > 0 {
			fmt.Fprintf(b, " [%s]", fmtSimDur(ev.Dur))
		}
		b.WriteByte('\n')
	}
	for _, child := range sp.children {
		t.renderSpan(b, child, depth+1)
	}
}

// fmtSimDur renders a simulated duration compactly.
func fmtSimDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// spanKey carries the current *Span on the context.
type spanKey struct{}

// SpanFrom returns the span the context carries, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// TraceFrom returns the trace the context carries, or nil.
func TraceFrom(ctx context.Context) *Trace {
	if sp := SpanFrom(ctx); sp != nil {
		return sp.tr
	}
	return nil
}

// StartSpan opens a child span under the context's current span and
// returns the derived context carrying it. With no trace on the
// context it returns (ctx, nil) — every layer can instrument
// unconditionally and pay only a context lookup when untraced.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.tr.startSpan(parent, name, attrs...)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// RPC records one transport request as an event on the context's
// current span: message type, budget category, remote peer and the
// sim-accurate latency. No-op when the context carries no trace.
func RPC(ctx context.Context, msgType, category, peer string, latency time.Duration, errStr string) {
	sp := SpanFrom(ctx)
	if sp == nil {
		return
	}
	attrs := []Attr{A("type", msgType), A("cat", category), A("peer", peer)}
	if errStr != "" {
		attrs = append(attrs, A("err", errStr))
	}
	sp.EventDur("rpc", latency, attrs...)
}

// RPCDrop records a transport request lost to link faults or a regional
// partition as a distinct "rpc-drop" event on the context's current
// span: message type, budget category, remote peer, how long the caller
// waited before detecting the loss, and which transmit attempt was lost
// (0 = the first send, higher = an automatic retransmit). No-op when
// the context carries no trace.
func RPCDrop(ctx context.Context, msgType, category, peer string, wait time.Duration, attempt int, errStr string) {
	sp := SpanFrom(ctx)
	if sp == nil {
		return
	}
	sp.EventDur("rpc-drop", wait,
		A("type", msgType), A("cat", category), A("peer", peer),
		A("attempt", fmt.Sprintf("%d", attempt)), A("err", errStr))
}

// traceRingCap bounds the per-recorder trace history.
const traceRingCap = 128

// Recorder owns one node's telemetry: the trace ring and the metrics
// registry. Trace IDs are a per-recorder sequence and timestamps come
// from the recorder's clock (the scheduler's virtual clock in a
// simulated run), so a seeded run produces identical IDs and instants
// every time.
type Recorder struct {
	mu     sync.Mutex
	src    simtime.Source
	nextID int64
	traces []*Trace
	reg    *Registry
}

// NewRecorder builds a recorder over the node's time source; nil
// selects the wall clock.
func NewRecorder(src simtime.Source) *Recorder {
	return &Recorder{src: simtime.OrWall(src), reg: NewRegistry()}
}

// Registry returns the recorder's metrics registry.
func (r *Recorder) Registry() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// StartTrace opens a new trace (and its root span) for one operation
// and returns the context carrying it. When the context already
// carries a trace — a publish nested inside a retrieve — it opens a
// child span on the existing trace instead, keeping one operation one
// tree. Safe on a nil recorder.
func (r *Recorder) StartTrace(ctx context.Context, op string, attrs ...Attr) (context.Context, *Span) {
	if r == nil {
		return ctx, nil
	}
	if SpanFrom(ctx) != nil {
		return StartSpan(ctx, op, attrs...)
	}
	r.mu.Lock()
	r.nextID++
	tr := &Trace{Op: op, ID: r.nextID, src: r.src}
	r.traces = append(r.traces, tr)
	if len(r.traces) > traceRingCap {
		r.traces = r.traces[1:]
	}
	r.mu.Unlock()
	sp := tr.startSpan(nil, op, attrs...)
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Last returns the most recent trace, or nil.
func (r *Recorder) Last() *Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.traces) == 0 {
		return nil
	}
	return r.traces[len(r.traces)-1]
}

// Traces returns a copy of the retained trace ring, oldest first.
func (r *Recorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Trace(nil), r.traces...)
}

// Drain returns the retained traces and clears the ring — the
// scenario engine's per-phase sampling primitive.
func (r *Recorder) Drain() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.traces
	r.traces = nil
	return out
}

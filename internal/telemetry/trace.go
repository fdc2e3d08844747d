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
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/peer"
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
// transport RPC, a Bitswap HAVE. It is the form events are read in;
// they are stored compactly (see event) and made into Events, strings
// and all, only when someone reads them.
type Event struct {
	Seq   int // per-trace sequence (arrival order)
	Name  string
	At    time.Time     // trace-clock instant
	Dur   time.Duration // measured sim-accurate latency, zero when n/a
	Attrs []Attr
}

// peerCap is the longest peer ID an event holds inline; a sha2-256
// PeerID is 34 bytes.
const peerCap = 38

type eventKind uint8

const (
	evGeneric eventKind = iota // name and attributes kept as given, in Trace.generic[aux]
	evRPC
	evRPCDrop // aux is the transmit attempt
	evHop     // flag is ok, aux the depth
	evHave    // flag is routed
)

// event is the stored form of one event: fixed size and free of
// pointers, so the 128 traces a node retains cost the collector nothing
// however many RPCs they recorded. Type and category are indices into
// the trace's name table, the peer ID sits inline as raw bytes, and the
// rare error string, or a peer ID too long to sit inline, lives in the
// trace's side table.
type event struct {
	at       int64 // unix ns on the trace clock
	dur      int64
	seq      int32
	aux      int32
	err      int32 // index+1 into Trace.side, 0 for none
	longPeer int32 // index+1 into Trace.side when the peer ID exceeds peerCap
	typ, cat uint16
	kind     eventKind
	flag     bool
	peerLen  uint8
	peer     [peerCap]byte
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

	events    []event
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

// EventDur records an event carrying a measured sim-accurate duration.
// Events may be appended from concurrent goroutines. The per-RPC events
// have typed recorders (RPC, RPCDrop, Hop, Have) that format nothing;
// this is for the occasional one that has none.
func (s *Span) EventDur(name string, dur time.Duration, attrs ...Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.tr.generic = append(s.tr.generic, Event{Name: name, Attrs: attrs})
	s.appendLocked(event{kind: evGeneric, dur: int64(dur), aux: int32(len(s.tr.generic) - 1)}, "")
}

// Hop records one answered (or failed) query of a DHT walk: the peer
// asked and, when it answered, how deep in the walk it sat.
func (s *Span) Hop(p peer.ID, ok bool, depth int) {
	s.record(event{kind: evHop, flag: ok, aux: int32(depth)}, p)
}

// Have records the HAVE that ended a want-wave and whether the router
// had named the peer.
func (s *Span) Have(p peer.ID, routed bool) {
	s.record(event{kind: evHave, flag: routed}, p)
}

func (s *Span) record(e event, p peer.ID) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.appendLocked(e, p)
	s.tr.mu.Unlock()
}

// appendLocked stamps e with the trace's next sequence number, the
// clock and the peer, and appends it.
func (s *Span) appendLocked(e event, p peer.ID) {
	t := s.tr
	t.seq++
	e.seq, e.at = int32(t.seq), t.src.Now().UnixNano()
	if len(p) > peerCap {
		t.side = append(t.side, string(p))
		e.longPeer = int32(len(t.side))
	} else {
		e.peerLen = uint8(copy(e.peer[:], p))
	}
	s.events = append(s.events, e)
}

// Events returns the span's events in arrival order, rendered: this is
// where names, base58 peer IDs and attribute lists are built, so call
// it to read a trace, not on a request path.
func (s *Span) Events() []Event {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.renderAll(s.events)
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

	// Side tables of the compact events: the few distinct message-type
	// and category names, the strings too rare or too long for a fixed
	// field (errors, oversized peer IDs), and the name and attributes of
	// events recorded through the generic Event call.
	names   []string
	side    []string
	generic []Event
}

// name returns s's index in the trace's name table. The table holds a
// bounded vocabulary (wire message types, budget categories), so a
// linear search beats a map.
func (t *Trace) name(s string) uint16 {
	for i, n := range t.names {
		if n == s {
			return uint16(i)
		}
	}
	t.names = append(t.names, s)
	return uint16(len(t.names) - 1)
}

// render builds the readable form of a stored event.
func (t *Trace) render(e *event) Event {
	ev := Event{Seq: int(e.seq), At: time.Unix(0, e.at).In(t.root.Start.Location()), Dur: time.Duration(e.dur)}
	p := peer.ID(e.peer[:e.peerLen])
	if e.longPeer != 0 {
		p = peer.ID(t.side[e.longPeer-1])
	}
	errStr := ""
	if e.err != 0 {
		errStr = t.side[e.err-1]
	}
	switch e.kind {
	case evGeneric:
		ev.Name, ev.Attrs = t.generic[e.aux].Name, t.generic[e.aux].Attrs
	case evRPC, evRPCDrop:
		ev.Name = "rpc"
		ev.Attrs = []Attr{A("type", t.names[e.typ]), A("cat", t.names[e.cat]), A("peer", p.String())}
		if e.kind == evRPCDrop { // a drop always says which attempt and why
			ev.Name = "rpc-drop"
			ev.Attrs = append(ev.Attrs, A("attempt", strconv.Itoa(int(e.aux))), A("err", errStr))
		} else if errStr != "" {
			ev.Attrs = append(ev.Attrs, A("err", errStr))
		}
	case evHop:
		ev.Name = "hop"
		ev.Attrs = []Attr{A("peer", p.String()), A("ok", strconv.FormatBool(e.flag))}
		if e.flag {
			ev.Attrs = append(ev.Attrs, A("depth", strconv.Itoa(int(e.aux))))
		}
	case evHave:
		ev.Name = "have"
		ev.Attrs = []Attr{A("peer", p.String()), A("routed", strconv.FormatBool(e.flag))}
	}
	return ev
}

func (t *Trace) renderAll(events []event) []Event {
	out := make([]Event, len(events))
	for i := range events {
		out[i] = t.render(&events[i])
	}
	return out
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
		for _, ev := range t.renderAll(sp.events) {
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
	for _, ev := range t.renderAll(sp.events) {
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
// sim-accurate latency. No-op when the context carries no trace; with
// one it stores a fixed-size record and formats nothing.
func RPC(ctx context.Context, msgType, category string, remote peer.ID, latency time.Duration, errStr string) {
	SpanFrom(ctx).rpc(evRPC, msgType, category, remote, latency, 0, errStr)
}

// RPCDrop records a transport request lost to link faults or a regional
// partition as a distinct "rpc-drop" event on the context's current
// span: message type, budget category, remote peer, how long the caller
// waited before detecting the loss, and which transmit attempt was lost
// (0 = the first send, higher = an automatic retransmit). No-op when
// the context carries no trace.
func RPCDrop(ctx context.Context, msgType, category string, remote peer.ID, wait time.Duration, attempt int, errStr string) {
	SpanFrom(ctx).rpc(evRPCDrop, msgType, category, remote, wait, attempt, errStr)
}

func (s *Span) rpc(kind eventKind, msgType, category string, remote peer.ID, dur time.Duration, attempt int, errStr string) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	e := event{kind: kind, dur: int64(dur), aux: int32(attempt), typ: t.name(msgType), cat: t.name(category)}
	if errStr != "" {
		t.side = append(t.side, errStr)
		e.err = int32(len(t.side))
	}
	s.appendLocked(e, remote)
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
	ring   []*Trace // traceRingCap long once a trace exists: the n newest, oldest at ring[head]
	head   int
	n      int
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
	if r.ring == nil {
		r.ring = make([]*Trace, traceRingCap)
	}
	if r.n < traceRingCap {
		r.ring[(r.head+r.n)%traceRingCap] = tr
		r.n++
	} else {
		r.ring[r.head] = tr // the oldest trace is overwritten, not kept
		r.head = (r.head + 1) % traceRingCap
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
	if r.n == 0 {
		return nil
	}
	return r.ring[(r.head+r.n-1)%traceRingCap]
}

// Traces returns a copy of the retained trace ring, oldest first.
func (r *Recorder) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tracesLocked()
}

func (r *Recorder) tracesLocked() []*Trace {
	out := make([]*Trace, r.n)
	for i := range out {
		out[i] = r.ring[(r.head+i)%traceRingCap]
	}
	return out
}

// Drain returns the retained traces and clears the ring — the
// scenario engine's per-phase sampling primitive.
func (r *Recorder) Drain() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.tracesLocked()
	r.ring, r.head, r.n = nil, 0, 0
	return out
}

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
// metrics, and methods on nil *Counter/*Gauge/*Hist no-op, so
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
	evGeneric eventKind = iota // typ names it; its attributes are in Trace.attrs
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
	span     int32 // index into Trace.spans
	aux      int32
	err      int32 // index+1 into Trace.side, 0 for none
	longPeer int32 // index+1 into Trace.side when the peer ID exceeds peerCap
	typ, cat uint16
	kind     eventKind
	flag     bool
	peerLen  uint8
	peer     [peerCap]byte
}

// ref is a string kept in a trace's text arena.
type ref struct{ off, n uint32 }

// spanRec is the stored form of one span, as free of pointers as an
// event.
type spanRec struct {
	start, stop int64 // unix ns on the trace clock; stop is set by End
	opened      int64 // Since(Trace.stamp) when the span opened
	wall        int64 // sim-accurate elapsed time, set by End
	id          int32 // per-trace sequence number (deterministic on serial paths)
	parent      int32 // index into Trace.spans, -1 for the root
	parentID    int32 // the parent's id, 0 for the root
	name        ref
	ended       bool
}

// attrRec is one stored attribute. Its owner is a span index, or ^i
// for the i-th event when that event was recorded through Span.Event.
type attrRec struct {
	owner    int32
	key, val ref
}

// Span is a handle on one timed operation inside a trace: the trace
// and the span's index in it. Callers hold it while the span runs; the
// trace never points at it. The recording methods are safe on a nil
// receiver, so un-traced call paths cost a nil check.
type Span struct {
	tr *Trace
	i  int32
}

// End closes the span, recording its sim-accurate elapsed time.
// Closing twice is a no-op, so racers can defer End unconditionally.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &t.spans[s.i]
	if r.ended {
		return
	}
	r.ended = true
	r.stop = t.src.Now().UnixNano()
	r.wall = int64(t.src.Since(t.stamp)) - r.opened
	t.open--
}

// Annotate attaches a key/value annotation to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.annotate(s.i, key, value)
	s.tr.mu.Unlock()
}

// Event records a structured event on the span. Events may be appended
// from concurrent goroutines. The per-RPC events have typed recorders
// (RPC, RPCDrop, Hop, Have) that format nothing; this is for the
// occasional one that has none.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, a := range attrs {
		t.annotate(^int32(len(t.events)), a.Key, a.Value)
	}
	s.appendLocked(event{kind: evGeneric, typ: t.name(name)}, "")
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

// appendLocked stamps e with the span, the trace's next sequence
// number, the clock and the peer, and appends it. A span that has
// ended still takes events: a late answer lands where it belongs.
func (s *Span) appendLocked(e event, p peer.ID) {
	t := s.tr
	t.seq++
	e.seq, e.span, e.at = int32(t.seq), s.i, t.src.Now().UnixNano()
	if len(p) > peerCap {
		t.side = append(t.side, t.add(string(p)))
		e.longPeer = int32(len(t.side))
	} else {
		e.peerLen = uint8(copy(e.peer[:], p))
	}
	t.events = push(t.events, e, 24)
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
	return s.tr.spanEvents(s.i)
}

// rec returns a copy of the span's record, read under the trace lock.
func (s *Span) rec() spanRec {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.spans[s.i]
}

// ID returns the span's per-trace sequence number.
func (s *Span) ID() int { return int(s.rec().id) }

// Parent returns the parent span's ID, 0 for the root.
func (s *Span) Parent() int { return int(s.rec().parentID) }

// Name returns the span's name.
func (s *Span) Name() string {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.str(s.tr.spans[s.i].name)
}

// Stop returns the trace-clock instant End ran, zero while open.
func (s *Span) Stop() time.Time {
	if r := s.rec(); r.ended {
		return s.tr.instant(r.stop)
	}
	return time.Time{}
}

// Wall returns the span's sim-accurate elapsed time, zero while open.
func (s *Span) Wall() time.Duration { return time.Duration(s.rec().wall) }

// Offsets returns the instants s opened and ended as monotonic offsets
// from the trace's start, so phases of one trace subtract exactly on
// either clock; end is open while s runs.
func (s *Span) Offsets() (open, end time.Duration) {
	r := s.rec()
	return time.Duration(r.opened), time.Duration(r.opened + r.wall)
}

// Attrs returns the span's annotations in the order they were added.
func (s *Span) Attrs() []Attr {
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return s.tr.attrsOf(s.i)
}

// Children returns the spans opened directly under s, in creation
// order.
func (s *Span) Children() []*Span {
	return s.collect(false, func(t *Trace, j int32) bool { return t.spans[j].parent == s.i })
}

// Descendants returns the spans named name anywhere under s, in
// creation order.
func (s *Span) Descendants(name string) []*Span {
	return s.collect(true, func(t *Trace, j int32) bool { return string(t.bytes(t.spans[j].name)) == name })
}

// collect returns the spans after s, in creation order, that keep
// accepts: only those of s's subtree when deep.
func (s *Span) collect(deep bool, keep func(t *Trace, j int32) bool) []*Span {
	if s == nil {
		return nil
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	var in []bool
	if deep {
		in = t.subtree(s.i)
	}
	var out []*Span
	for j := s.i + 1; j < int32(len(t.spans)); j++ {
		if (in == nil || in[j]) && keep(t, j) {
			out = append(out, &Span{t, j})
		}
	}
	return out
}

// RPCs counts the answered-or-failed RPC events of the given budget
// category recorded anywhere in s's subtree (drops excluded).
func (s *Span) RPCs(category string) int {
	if s == nil {
		return 0
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	in := t.subtree(s.i)
	n := 0
	for k := range t.events {
		if e := &t.events[k]; in[e.span] && e.kind == evRPC && string(t.bytes(t.names[e.cat])) == category {
			n++
		}
	}
	return n
}

// subtree marks span i and its descendants in one pass: a parent is
// created before its children, so membership is known by the time a
// span is reached.
func (t *Trace) subtree(i int32) []bool {
	in := make([]bool, len(t.spans))
	in[i] = true
	for j := i + 1; j < int32(len(t.spans)); j++ {
		if p := t.spans[j].parent; p >= 0 && in[p] {
			in[j] = true
		}
	}
	return in
}

// Trace is one operation's span tree. At rest it is a few tables of
// pointer-free records and one text arena every string lives in, so a
// retained trace is a handful of heap objects and only the Trace itself
// holds pointers; strings are made when someone reads it.
type Trace struct {
	Op string // the root operation ("retrieve", "publish", "republish")
	ID int64  // per-recorder sequence

	mu    sync.Mutex
	src   simtime.Source
	loc   *time.Location // the clock's, for rendering instants
	stamp time.Time      // spans measure their wall offsets from it
	seq   int
	open  int

	spans  []spanRec // creation order; the root is spans[0]
	attrs  []attrRec // in the order they were added
	events []event   // arrival order

	names []ref  // the few distinct message-type, category and generic event names
	side  []ref  // strings too rare or too long for a fixed field: errors, oversized peer IDs
	text  []byte // every string the tables refer to
}

// newTrace opens a trace and its root span. Its tables start at a
// retrieval's size (six spans, fourteen attributes, twenty-odd events),
// so recording one never grows them; see push.
func newTrace(src simtime.Source, op string, attrs []Attr) *Trace {
	t := &Trace{
		Op: op, src: src, loc: src.Now().Location(), stamp: src.Stamp(),
		spans: make([]spanRec, 0, 8),
		text:  make([]byte, 0, 384),
	}
	t.startSpan(-1, op, attrs)
	return t
}

// push appends v to a table, giving it room for n on its first append,
// so a trace that never uses a table never allocates it.
func push[T any](s []T, v T, n int) []T {
	if s == nil {
		s = make([]T, 0, n)
	}
	return append(s, v)
}

// add copies s into the text arena.
func (t *Trace) add(s string) ref {
	r := ref{uint32(len(t.text)), uint32(len(s))}
	t.text = append(t.text, s...)
	return r
}

func (t *Trace) bytes(r ref) []byte { return t.text[r.off : r.off+r.n] }
func (t *Trace) str(r ref) string   { return string(t.bytes(r)) }

// instant renders a stored unix-ns instant on the trace clock.
func (t *Trace) instant(ns int64) time.Time { return time.Unix(0, ns).In(t.loc) }

// name returns s's index in the trace's name table. The table holds a
// bounded vocabulary (wire message types, budget categories), so a
// linear search beats a map.
func (t *Trace) name(s string) uint16 {
	for i, r := range t.names {
		if string(t.bytes(r)) == s {
			return uint16(i)
		}
	}
	t.names = push(t.names, t.add(s), 8)
	return uint16(len(t.names) - 1)
}

func (t *Trace) annotate(owner int32, key, value string) {
	t.attrs = push(t.attrs, attrRec{owner, t.add(key), t.add(value)}, 16)
}

// attrsOf returns the attributes of owner (a span index, or ^i for the
// i-th event) in the order they were added.
func (t *Trace) attrsOf(owner int32) []Attr {
	var out []Attr
	for _, a := range t.attrs {
		if a.owner == owner {
			out = append(out, Attr{t.str(a.key), t.str(a.val)})
		}
	}
	return out
}

// render builds the readable form of the k-th stored event.
func (t *Trace) render(k int) Event {
	e := &t.events[k]
	ev := Event{Seq: int(e.seq), At: t.instant(e.at), Dur: time.Duration(e.dur)}
	p := peer.ID(e.peer[:e.peerLen])
	if e.longPeer != 0 {
		p = peer.ID(t.str(t.side[e.longPeer-1]))
	}
	errStr := ""
	if e.err != 0 {
		errStr = t.str(t.side[e.err-1])
	}
	switch e.kind {
	case evGeneric:
		ev.Name, ev.Attrs = t.str(t.names[e.typ]), t.attrsOf(^int32(k))
	case evRPC, evRPCDrop:
		ev.Name = "rpc"
		ev.Attrs = []Attr{A("type", t.str(t.names[e.typ])), A("cat", t.str(t.names[e.cat])), A("peer", p.String())}
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

// spanEvents renders span i's events in arrival order.
func (t *Trace) spanEvents(i int32) []Event {
	var out []Event
	for k := range t.events {
		if t.events[k].span == i {
			out = append(out, t.render(k))
		}
	}
	return out
}

func (t *Trace) startSpan(parent int32, name string, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	i := int32(len(t.spans))
	r := spanRec{
		id: int32(t.seq), parent: parent, name: t.add(name),
		start: t.src.Now().UnixNano(), opened: int64(t.src.Since(t.stamp)),
	}
	if parent >= 0 {
		r.parentID = t.spans[parent].id
	}
	t.spans = append(t.spans, r)
	for _, a := range attrs {
		t.annotate(i, a.Key, a.Value)
	}
	t.open++
	return &Span{t, i}
}

// Root returns the trace's root span.
func (t *Trace) Root() *Span { return &Span{t, 0} }

// OpenSpans returns the number of spans started but not yet ended —
// the leak detector the cancellation tests assert on.
func (t *Trace) OpenSpans() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.open
}

// FindSpan returns the first span (in creation order) with the given
// name, or nil. Each call returns a fresh handle: compare spans by ID.
func (t *Trace) FindSpan(name string) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if string(t.bytes(t.spans[i].name)) == name {
			return &Span{t, int32(i)}
		}
	}
	return nil
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
	for i := range t.spans {
		sp := &t.spans[i]
		rec := spanRecord{
			Trace: t.ID, Op: t.Op, ID: int(sp.id), Parent: int(sp.parentID), Name: t.str(sp.name),
			Start: t.instant(sp.start), WallUS: time.Duration(sp.wall).Microseconds(),
			Attrs: t.attrsOf(int32(i)),
		}
		if sp.ended {
			stop := t.instant(sp.stop)
			rec.Stop = &stop
		}
		for _, ev := range t.spanEvents(int32(i)) {
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
	t.renderSpan(&b, 0, 0)
	return b.String()
}

func (t *Trace) renderSpan(b *strings.Builder, i int32, depth int) {
	sp := &t.spans[i]
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(b, "%s%s #%d", indent, t.str(sp.name), sp.id)
	if sp.ended {
		fmt.Fprintf(b, " [%s]", fmtSimDur(time.Duration(sp.wall)))
	}
	for _, a := range t.attrsOf(i) {
		fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
	}
	b.WriteByte('\n')
	for _, ev := range t.spanEvents(i) {
		fmt.Fprintf(b, "%s  · %s", indent, ev.Name)
		for _, a := range ev.Attrs {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Value)
		}
		if ev.Dur > 0 {
			fmt.Fprintf(b, " [%s]", fmtSimDur(ev.Dur))
		}
		b.WriteByte('\n')
	}
	for j := i + 1; j < int32(len(t.spans)); j++ { // a child is created after its parent
		if t.spans[j].parent == i {
			t.renderSpan(b, j, depth+1)
		}
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
	sp := parent.tr.startSpan(parent.i, name, attrs)
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
		t.side = append(t.side, t.add(errStr))
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
	tr := newTrace(r.src, op, attrs) // nobody else sees it until it is in the ring
	r.mu.Lock()
	r.nextID++
	tr.ID = r.nextID
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
	sp := tr.Root()
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

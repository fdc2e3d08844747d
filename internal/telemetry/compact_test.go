package telemetry

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/slab"
)

// TestTraceRendersUnchanged replays a scripted trace — an rpc with and
// without an error, rpc-drops, a generic Event between them, hops ok
// and failed, a have, a peer ID too long to sit inline — and holds
// Tree and WriteJSONL to the bytes the attribute-slice implementation
// rendered for the same script (testdata/scripted_trace.*, written by
// it and never regenerated).
func TestTraceRendersUnchanged(t *testing.T) {
	pA, pB, pC := peer.ID("\x12\x20"+strings.Repeat("a", 32)), peer.ID("\x12\x20"+strings.Repeat("b", 32)), peer.ID("\x12\x20"+strings.Repeat("c", 32))
	pLong := peer.ID(strings.Repeat("L", 50))
	var tr *Trace
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		ctx, root := NewRecorder(s).StartTrace(ctx, "retrieve", A("cid", "bafy-script"))
		dctx, d := StartSpan(ctx, "discover")
		s.Sleep(ctx, 5*time.Millisecond)
		RPC(dctx, "GET_PROVIDERS", "lookup", pA, 40*time.Millisecond, "")
		RPC(dctx, "GET_PROVIDERS", "lookup", pB, 10*time.Second, "dial timeout")
		RPCDrop(dctx, "FIND_NODE", "lookup", pC, 1500*time.Millisecond, 1, "link loss")
		d.Event("fallback", A("to", "dht"))
		_, w := StartSpan(dctx, "dht-walk")
		w.Hop(pA, true, 2)
		s.Sleep(ctx, 700*time.Microsecond)
		w.Hop(pB, false, 0)
		w.End()
		_, wave := StartSpan(dctx, "want-wave")
		wave.Have(pC, true)
		wave.End()
		d.End()
		RPC(ctx, "WANT_BLOCK", "want", pLong, 90*time.Millisecond, "")
		RPCDrop(ctx, "WANT_BLOCK", "want", pA, 0, 0, "")
		root.End()
		tr = TraceFrom(ctx)
	})

	var jsonl strings.Builder
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	for file, got := range map[string]string{"scripted_trace.tree": tr.Tree(), "scripted_trace.jsonl": jsonl.String()} {
		want, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from what the parent rendered:\n%s\nwant:\n%s", file, got, want)
		}
	}

	// Events() is the same rendering, span by span, in Seq order.
	last := 0
	for _, ev := range tr.FindSpan("discover").Events() {
		if ev.Seq <= last {
			t.Errorf("event %q has Seq %d after %d", ev.Name, ev.Seq, last)
		}
		last = ev.Seq
	}
	evs := tr.FindSpan("discover").Events()
	if len(evs) != 4 || evs[1].Name != "rpc" || evs[1].Dur != 10*time.Second ||
		!reflect.DeepEqual(evs[1].Attrs, []Attr{A("type", "GET_PROVIDERS"), A("cat", "lookup"), A("peer", pB.String()), A("err", "dial timeout")}) ||
		!evs[1].At.Equal(simtest.Epoch.Add(5*time.Millisecond)) {
		t.Errorf("discover events = %+v", evs)
	}
	if got := FirstHopShare([]*Trace{tr}); got != 0 {
		t.Errorf("FirstHopShare = %v, want 0: the discover span carries two lookup RPCs", got)
	}
}

// TestTraceRingReleasesEvictedTraces: a recorder keeps the newest
// traceRingCap traces and nothing else reachable, and a retained trace
// is a handful of heap objects: the Trace and its tables (spans,
// attributes, events, text), however many spans, attributes and events
// it recorded.
func TestTraceRingReleasesEvictedTraces(t *testing.T) {
	rec := NewRecorder(frozen())
	p := peer.ID("\x12\x20" + strings.Repeat("p", 32))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1000; i++ {
		ctx, root := rec.StartTrace(context.Background(), "retrieve", A("n", strconv.Itoa(i)))
		_, sp := StartSpan(ctx, "discover", A("k", "v"))
		sp.Hop(p, true, 1)
		sp.Annotate("depth", "1")
		sp.End()
		root.End()
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// The ring's own backing array is the one object not a trace's.
	if objects := int64(after.HeapObjects) - int64(before.HeapObjects) - 1; objects > 6*traceRingCap {
		t.Errorf("%d heap objects live after 1000 traces, want at most 6 for each of the ring's %d", objects, traceRingCap)
	}
	traces := rec.Traces()
	if len(traces) != traceRingCap || traces[0].ID != 1000-traceRingCap+1 || rec.Last().ID != 1000 {
		t.Errorf("ring holds %d traces, ids %d..%d, want the newest %d", len(traces), traces[0].ID, rec.Last().ID, traceRingCap)
	}
	for i, tr := range rec.Drain() {
		if tr.ID != int64(1000-traceRingCap+1+i) {
			t.Fatalf("Drain()[%d] is trace %d: not oldest first", i, tr.ID)
		}
	}
	if rec.Last() != nil || len(rec.Traces()) != 0 {
		t.Error("ring not empty after Drain")
	}
}

// TestLateEventsRenderUnderTheirSpan: an RPC recorded after its span's
// End, and after the root's too (a want-wave's late WANT-HAVE answers,
// a cancelled racer's wind-down RPC), renders under that span.
func TestLateEventsRenderUnderTheirSpan(t *testing.T) {
	rec := NewRecorder(frozen())
	ctx, root := rec.StartTrace(context.Background(), "retrieve")
	wctx, wave := StartSpan(ctx, "want-wave")
	_, fetch := StartSpan(ctx, "fetch")
	wave.End()
	RPC(wctx, "WANT_HAVE", "want", "late", time.Millisecond, "")
	fetch.End()
	root.End()
	RPC(wctx, "WANT_HAVE", "want", "later", time.Millisecond, "")
	tr := TraceFrom(ctx)
	evs := wave.Events()
	if len(evs) != 2 || evs[0].Attrs[2].Value != peer.ID("late").String() || evs[1].Attrs[2].Value != peer.ID("later").String() {
		t.Errorf("want-wave events = %+v, want the two late RPCs", evs)
	}
	if n := len(tr.Root().Events()) + len(fetch.Events()); n != 0 {
		t.Errorf("%d late events landed outside their span", n)
	}
	tree := tr.Tree()
	if want := "  want-wave #2 [0µs]\n    · rpc type=WANT_HAVE cat=want peer=" + peer.ID("late").String(); !strings.Contains(tree, want) {
		t.Errorf("tree does not render the late RPCs under want-wave:\n%s", tree)
	}
}

// TestConcurrentSpansShareOneTrace: spans opened, annotated, given
// events and ended on several goroutines at once, while another reads
// the trace, all land in its tables (run it under -race).
func TestConcurrentSpansShareOneTrace(t *testing.T) {
	ctx, root := NewRecorder(nil).StartTrace(context.Background(), "retrieve")
	tr := TraceFrom(ctx)
	const workers, rounds = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sctx, sp := StartSpan(ctx, "discover")
				RPC(sctx, "FIND_NODE", "lookup", "p", time.Millisecond, "")
				sp.Annotate("i", strconv.Itoa(i))
				sp.End()
				_ = sp.Wall() + time.Duration(sp.Parent())
			}
		}()
	}
	for i := 0; i < rounds; i++ {
		_ = tr.Tree()
		_ = FirstHopShare([]*Trace{tr})
	}
	wg.Wait()
	root.End()
	if got, want := strings.Count(tr.Tree(), "· rpc "), workers*rounds; got != want || tr.OpenSpans() != 0 {
		t.Errorf("tree holds %d RPC events and %d open spans, want %d and 0", got, tr.OpenSpans(), want)
	}
}

// TestStateLayoutsArePointerFree: a recorded span, attribute and event,
// and the arena references they hold, are nothing the collector has to
// trace.
func TestStateLayoutsArePointerFree(t *testing.T) {
	for _, v := range []any{event{}, spanRec{}, attrRec{}, ref{}} {
		if err := slab.PointerFree(reflect.TypeOf(v)); err != nil {
			t.Error(err)
		}
	}
}

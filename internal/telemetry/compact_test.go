package telemetry

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
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
// traceRingCap traces and nothing else reachable. The re-sliced
// append-only ring this replaced kept up to twice that alive in its
// backing array.
func TestTraceRingReleasesEvictedTraces(t *testing.T) {
	rec := NewRecorder(frozen())
	var alive atomic.Int64
	for i := 0; i < 1000; i++ {
		// A trace and its spans point at each other, and a finalizer on
		// a cycle never runs; the root span's attribute array is held
		// by the trace alone and points back at nothing.
		attrs := []Attr{A("n", "x")}
		alive.Add(1)
		runtime.SetFinalizer(&attrs[0], func(*Attr) { alive.Add(-1) })
		_, sp := rec.StartTrace(context.Background(), "retrieve", attrs...)
		sp.End()
	}
	// A finalizer runs one collection after its object is found dead,
	// on its own goroutine.
	for i := 0; i < 50 && alive.Load() > traceRingCap; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := alive.Load(); got > traceRingCap {
		t.Errorf("%d traces alive after 1000 were started, want at most the ring's %d", got, traceRingCap)
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

// TestStateLayoutsArePointerFree: a recorded event holds nothing the
// collector has to trace.
func TestStateLayoutsArePointerFree(t *testing.T) {
	if err := slab.PointerFree(reflect.TypeOf(event{})); err != nil {
		t.Error(err)
	}
}

package telemetry

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
)

// frozen returns a time source pinned to a fixed instant: a scheduler
// nobody runs, so its virtual clock never moves.
func frozen() simtime.Source {
	return simtime.NewScheduler(simtime.NewClock(simtest.Epoch), simtime.SchedulerOpts{})
}

func TestTraceSpanTreeAndContext(t *testing.T) {
	rec := NewRecorder(frozen())
	ctx, root := rec.StartTrace(context.Background(), "retrieve", A("cid", "bafy1"))
	if root == nil {
		t.Fatal("StartTrace returned a nil root span")
	}
	tr := TraceFrom(ctx)
	if tr == nil || tr.Op != "retrieve" || tr.ID != 1 {
		t.Fatalf("TraceFrom = %+v, want retrieve trace #1", tr)
	}

	dctx, discover := StartSpan(ctx, "discover")
	RPC(dctx, "GET_PROVIDERS", "lookup", "peerA", 40*time.Millisecond, "")
	_, wave := StartSpan(dctx, "want-wave")
	wave.Event("have", A("peer", "peerB"))
	wave.End()
	discover.End()

	_, fetch := StartSpan(ctx, "fetch")
	RPC(ctx, "WANT_BLOCK", "want", "peerB", 90*time.Millisecond, "")
	fetch.End()
	root.End()

	if got := tr.OpenSpans(); got != 0 {
		t.Errorf("OpenSpans = %d after ending every span, want 0", got)
	}
	// Span IDs are the per-trace sequence: root=1, discover=2 (an RPC
	// event takes seq 3), want-wave=4 ...
	if discover.ID() != 2 || discover.Parent() != 1 {
		t.Errorf("discover span ID/Parent = %d/%d, want 2/1", discover.ID(), discover.Parent())
	}
	if wave.Parent() != discover.ID() {
		t.Errorf("want-wave parent = %d, want %d", wave.Parent(), discover.ID())
	}
	if sp := tr.FindSpan("want-wave"); sp == nil || sp.ID() != wave.ID() {
		t.Error("FindSpan(want-wave) did not return the span")
	}

	// The read API walks a subtree in creation order.
	names := func(spans []*Span) (out []string) {
		for _, sp := range spans {
			out = append(out, sp.Name())
		}
		return out
	}
	if got := names(root.Children()); strings.Join(got, ",") != "discover,fetch" {
		t.Errorf("root children = %v, want discover, fetch", got)
	}
	if got := root.Descendants("want-wave"); len(got) != 1 || got[0].ID() != wave.ID() {
		t.Errorf("Descendants(want-wave) = %v", names(got))
	}
	if len(discover.Descendants("fetch")) != 0 || len(wave.Children()) != 0 {
		t.Error("a span's subtree reaches outside it")
	}
	if root.RPCs("lookup") != 1 || root.RPCs("want") != 1 || discover.RPCs("want") != 0 || fetch.RPCs("want") != 0 {
		t.Errorf("RPCs: root lookup %d, want %d; discover want %d; fetch want %d (its RPC went to the root's context)",
			root.RPCs("lookup"), root.RPCs("want"), discover.RPCs("want"), fetch.RPCs("want"))
	}

	tree := tr.Tree()
	for _, want := range []string{"retrieve #1 [0µs] cid=bafy1", "  discover #2 [0µs]", "· rpc type=GET_PROVIDERS cat=lookup peer=" + peer.ID("peerA").String() + " [40.0ms]", "    · have peer=peerB", "  fetch #"} {
		if !strings.Contains(tree, want) {
			t.Errorf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestStableRendersAreDeterministic: on a scheduler a trace's measured
// durations are virtual, so the full renders — the tree with its
// durations, the JSONL with its sequence numbers and latencies — are
// the same bytes on every run, concurrent event arrivals included.
// TestSpanOffsets pins Offsets on virtual time: a span's open and end
// are offsets from the trace's start, and an open span ends where it
// opened.
func TestSpanOffsets(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		ctx, root := NewRecorder(s).StartTrace(ctx, "retrieve")
		s.Sleep(ctx, 10*time.Millisecond)
		_, child := StartSpan(ctx, "discover")
		s.Sleep(ctx, 20*time.Millisecond)
		if open, end := child.Offsets(); open != 10*time.Millisecond || end != open {
			t.Errorf("running child offsets = %v, %v, want 10ms, 10ms", open, end)
		}
		child.End()
		s.Sleep(ctx, 5*time.Millisecond)
		root.End()
		for _, c := range []struct {
			sp                *Span
			wantOpen, wantEnd time.Duration
		}{{root, 0, 35 * time.Millisecond}, {child, 10 * time.Millisecond, 30 * time.Millisecond}} {
			if open, end := c.sp.Offsets(); open != c.wantOpen || end != c.wantEnd || end-open != c.sp.Wall() {
				t.Errorf("%s offsets = %v, %v (wall %v), want %v, %v", c.sp.Name(), open, end, c.sp.Wall(), c.wantOpen, c.wantEnd)
			}
		}
	})
}

func TestStableRendersAreDeterministic(t *testing.T) {
	build := func() *Trace {
		var tr *Trace
		simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
			ctx, root := NewRecorder(s).StartTrace(ctx, "retrieve")
			dctx, discover := StartSpan(ctx, "discover")
			g := simtime.NewGroup(s)
			for i, peer := range []peer.ID{"peerB", "peerA", "peerC"} {
				latency := time.Duration(10*(3-i)) * time.Millisecond
				g.Go(dctx, func(ctx context.Context) {
					s.Sleep(ctx, latency)
					RPC(ctx, "GET_PROVIDERS", "lookup", peer, latency, "")
				})
			}
			g.Wait(dctx)
			discover.End()
			root.End()
			tr = TraceFrom(ctx)
		})
		return tr
	}
	jsonl := func(tr *Trace) string {
		var b strings.Builder
		if err := tr.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	a, b := build(), build()
	if a.Tree() != b.Tree() {
		t.Errorf("trees differ:\n%s\nvs\n%s", a.Tree(), b.Tree())
	}
	if !strings.Contains(a.Tree(), "discover #2 [30.0ms]") {
		t.Errorf("tree does not carry the span's virtual duration (the slowest RPC's 30ms):\n%s", a.Tree())
	}
	if jsonl(a) != jsonl(b) {
		t.Errorf("JSONL differs:\n%s\nvs\n%s", jsonl(a), jsonl(b))
	}
	// Every JSONL line must be valid JSON with the trace ID.
	for _, line := range strings.Split(strings.TrimSpace(jsonl(a)), "\n") {
		var rec spanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("JSONL line is not JSON: %v\n%s", err, line)
		}
		if rec.Trace != 1 || rec.Op != "retrieve" {
			t.Errorf("span record = %+v, want trace 1 op retrieve", rec)
		}
	}
}

func TestUntracedContextIsNoop(t *testing.T) {
	ctx := context.Background()
	sctx, sp := StartSpan(ctx, "discover")
	if sp != nil || sctx != ctx {
		t.Error("StartSpan on an untraced context must return (ctx, nil)")
	}
	// All of these must be safe no-ops.
	sp.End()
	sp.Annotate("k", "v")
	sp.Event("ev")
	if sp.Children() != nil || sp.Descendants("x") != nil || sp.RPCs("lookup") != 0 {
		t.Error("reading a nil span must find nothing")
	}
	RPC(ctx, "PING", "other", "p", time.Millisecond, "")
	var rec *Recorder
	rctx, rsp := rec.StartTrace(ctx, "retrieve")
	if rsp != nil || rctx != ctx {
		t.Error("nil recorder StartTrace must return (ctx, nil)")
	}
	if rec.Last() != nil || rec.Drain() != nil || rec.Registry() != nil {
		t.Error("nil recorder accessors must return zero values")
	}
}

func TestRecorderDrainAndNestedTrace(t *testing.T) {
	rec := NewRecorder(frozen())
	ctx, root := rec.StartTrace(context.Background(), "retrieve")
	// A publish nested under the retrieve joins the same trace.
	_, nested := rec.StartTrace(ctx, "publish")
	if got := TraceFrom(ctx); nested == nil || nested.tr != got {
		t.Error("nested StartTrace must open a child span on the same trace")
	}
	nested.End()
	root.End()
	rec.StartTrace(context.Background(), "republish")

	if rec.Last().Op != "republish" {
		t.Errorf("Last().Op = %q, want republish", rec.Last().Op)
	}
	drained := rec.Drain()
	if len(drained) != 2 {
		t.Fatalf("Drain returned %d traces, want 2", len(drained))
	}
	if drained[0].ID != 1 || drained[1].ID != 2 {
		t.Errorf("trace IDs = %d,%d, want 1,2", drained[0].ID, drained[1].ID)
	}
	if rec.Last() != nil || len(rec.Traces()) != 0 {
		t.Error("Drain must clear the ring")
	}
}

func TestRegistrySnapshotAndAggregate(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("rpc_total", "cat", "lookup").Add(3)
	a.Counter("rpc_total", "cat", "lookup").Inc() // same handle by key
	b.Counter("rpc_total", "cat", "lookup").Add(6)
	a.Gauge("snapshot_peers").Set(40)
	b.Gauge("snapshot_peers").Set(2)
	for _, v := range []float64{0.1, 0.2, 0.3} {
		a.Histogram("retrieve_seconds", 0.5).Observe(v)
	}
	b.Histogram("retrieve_seconds", 0.5).ObserveDuration(900 * time.Millisecond)

	snap := a.Snapshot()
	if got := snap.Counters["rpc_total{cat=lookup}"]; got != 4 {
		t.Errorf("counter = %v, want 4", got)
	}
	if got := snap.Latencies["retrieve_seconds"]; got.Count != 3 || got.P50 != 0.2 {
		t.Errorf("latency snapshot = %+v, want count 3 p50 0.2", got)
	}
	if got := snap.Latencies["retrieve_seconds"].Buckets["[0,0.5)"]; got != 3 {
		t.Errorf("bucket [0,0.5) = %v, want 3", got)
	}

	agg := AggregateRegistries(a, b, nil)
	if got := agg.Counters["rpc_total{cat=lookup}"]; got != 10 {
		t.Errorf("aggregated counter = %v, want 10", got)
	}
	if got := agg.Gauges["snapshot_peers"]; got != 42 {
		t.Errorf("aggregated gauge = %v, want 42", got)
	}
	lat := agg.Latencies["retrieve_seconds"]
	if lat.Count != 4 || lat.P99 < 0.3 {
		t.Errorf("aggregated latency = %+v, want count 4 with the 0.9s tail", lat)
	}
	if lat.Buckets["[0.5,1)"] != 1 {
		t.Errorf("aggregated buckets = %v, want one observation in [0.5,1)", lat.Buckets)
	}
	if r := agg.Render(); !strings.Contains(r, "rpc_total{cat=lookup}") || !strings.Contains(r, "retrieve_seconds") {
		t.Errorf("render missing series:\n%s", r)
	}
}

// TestRecordScheduler: the dispatcher's counters reach the registry as
// simtime_* gauges, and a re-recording overwrites them.
func TestRecordScheduler(t *testing.T) {
	reg := NewRegistry()
	s := simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		g := simtime.NewGroup(s)
		for i := 0; i < 3; i++ {
			g.Go(ctx, func(ctx context.Context) { s.Sleep(ctx, time.Second) })
		}
		reg.RecordScheduler(s) // mid-run: the spawns are parked, none has slept yet
		g.Wait(ctx)
	})
	if got := reg.Gauge("simtime_parked").Value(); got != 3 {
		t.Errorf("mid-run simtime_parked = %v, want the three spawns", got)
	}
	reg.RecordScheduler(s)
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"simtime_events_timer": 3, "simtime_marks_spawn": 3, "simtime_marks_timer": 3,
		"simtime_parked": 0, "simtime_parked_max": 4, "simtime_leased_max": 4,
		"simtime_polled_max": 0, "simtime_stalls": 0,
	} {
		if got, ok := snap.Gauges[name]; !ok || got != want {
			t.Errorf("%s = %v (present: %v), want %v", name, got, ok, want)
		}
	}
}

func TestDiscoverAnalytics(t *testing.T) {
	rec := NewRecorder(frozen())
	mk := func(lookups int, wall time.Duration) *Trace {
		ctx, root := rec.StartTrace(context.Background(), "retrieve")
		dctx, discover := StartSpan(ctx, "discover")
		for i := 0; i < lookups; i++ {
			RPC(dctx, "GET_PROVIDERS", "lookup", "p", time.Millisecond, "")
		}
		discover.End()
		root.End()
		tr := TraceFrom(ctx)
		// Pin the measured duration for the test; live spans fill it from
		// simtime.
		tr.mu.Lock()
		tr.spans[discover.i].wall = int64(wall)
		tr.mu.Unlock()
		return tr
	}
	traces := []*Trace{mk(1, 100*time.Millisecond), mk(1, 200*time.Millisecond), mk(7, 2*time.Second)}
	if p99 := DiscoverP99(traces); p99 < 1500*time.Millisecond || p99 > 2*time.Second {
		t.Errorf("DiscoverP99 = %v, want near the 2s tail", p99)
	}
	if share := FirstHopShare(traces); math.Abs(share-2.0/3) > 1e-9 {
		t.Errorf("FirstHopShare = %v, want 2/3", share)
	}
	if !math.IsNaN(FirstHopShare(nil)) || DiscoverP99(nil) != 0 {
		t.Error("empty trace sets must return NaN share and zero p99")
	}
}

func TestDebugHandler(t *testing.T) {
	rec := NewRecorder(frozen())
	rec.Registry().Counter("walk_hops").Add(12)
	ctx, root := rec.StartTrace(context.Background(), "retrieve")
	RPC(ctx, "FIND_NODE", "lookup", "peerA", time.Millisecond, "")
	root.End()

	h := Handler(rec)

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/metrics", nil))
	if w.Code != 200 {
		t.Fatalf("/debug/metrics status = %d", w.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/metrics is not JSON: %v", err)
	}
	if snap.Counters["walk_hops"] != 12 {
		t.Errorf("metrics snapshot = %+v, want walk_hops 12", snap.Counters)
	}

	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/trace/last", nil))
	var span spanRecord
	first := strings.SplitN(w.Body.String(), "\n", 2)[0]
	if err := json.Unmarshal([]byte(first), &span); err != nil {
		t.Fatalf("/debug/trace/last line is not JSON: %v\n%s", err, first)
	}
	if span.Op != "retrieve" || len(span.Events) != 1 {
		t.Errorf("last-trace record = %+v, want the retrieve root with its RPC event", span)
	}
}

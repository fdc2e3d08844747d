package gwfleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/gateway"
	"repro/internal/simtime"
	"repro/internal/testnet"
	"repro/internal/wire"
)

func TestRingPlacement(t *testing.T) {
	const nodes, keys = 8, 20000
	r := NewRing(nodes, 0)

	counts := make([]int, nodes)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		n := r.Place(key)
		if n < 0 || n >= nodes {
			t.Fatalf("Place(%q) = %d, out of range", key, n)
		}
		if again := r.Place(key); again != n {
			t.Fatalf("Place(%q) not deterministic: %d then %d", key, n, again)
		}
		counts[n]++
	}
	// 128 virtual nodes keep the split far from degenerate: every node
	// should own a meaningful share of a uniform keyspace.
	for n, c := range counts {
		if share := float64(c) / keys; share < 0.05 {
			t.Errorf("node %d owns %.1f%% of keys; ring is badly unbalanced", n, 100*share)
		}
	}

	succ := r.Successors("spill-key", 3)
	if len(succ) != 3 {
		t.Fatalf("Successors returned %d nodes, want 3", len(succ))
	}
	if succ[0] != r.Place("spill-key") {
		t.Error("Successors[0] is not the owner")
	}
	seen := map[int]bool{}
	for _, n := range succ {
		if seen[n] {
			t.Errorf("Successors returned node %d twice", n)
		}
		seen[n] = true
	}
	if got := NewRing(2, 16).Successors("k", 5); len(got) != 2 {
		t.Errorf("Successors capped at ring size: got %d nodes from a 2-ring, want 2", len(got))
	}
}

func TestAdmissionHysteresis(t *testing.T) {
	f := &Fleet{cfg: Config{MaxInflight: 2, QueueHigh: 3, QueueLow: 1}.withDefaults()}
	inst := &instance{}

	// Fill to MaxInflight + QueueHigh - 1: everything admitted.
	var releases []func()
	for i := 0; i < 4; i++ {
		release, ok := f.admit(inst)
		if !ok {
			t.Fatalf("request %d rejected below the high watermark", i)
		}
		releases = append(releases, release)
	}
	// Queue depth reaches QueueHigh: shedding latches.
	if _, ok := f.admit(inst); ok {
		t.Fatal("request admitted at the high watermark; want shed")
	}
	// Hysteresis: one release leaves the queue between the watermarks,
	// so the instance keeps shedding.
	releases[0]()
	if _, ok := f.admit(inst); ok {
		t.Fatal("request admitted while still above the low watermark; want shed")
	}
	// Drain to QueueLow: shedding clears and admission resumes.
	releases[1]()
	if _, ok := f.admit(inst); !ok {
		t.Fatal("request rejected after draining to the low watermark")
	}
}

func TestSharedCacheTTLs(t *testing.T) {
	clock := simtime.NewClock(time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC))
	src := simtime.NewScheduler(clock, simtime.SchedulerOpts{}) // never run: the test moves its clock by hand
	c := NewSharedCache(1<<20, time.Minute, 10*time.Minute, src, nil)
	root := cid.SumV0([]byte("missing"))

	if c.KnownMissing(root) {
		t.Fatal("fresh cache reports the CID missing")
	}
	c.NoteMissing(root)
	if !c.KnownMissing(root) {
		t.Fatal("NoteMissing did not open a negative window")
	}
	clock.Advance(59 * time.Second)
	if !c.KnownMissing(root) {
		t.Fatal("negative window closed before its TTL")
	}
	clock.Advance(2 * time.Second)
	if c.KnownMissing(root) {
		t.Fatal("negative window survived past its TTL")
	}

	// A publish invalidates the window immediately, not at TTL expiry.
	c.NoteMissing(root)
	c.Invalidate(root)
	if c.KnownMissing(root) {
		t.Fatal("Invalidate did not close the negative window")
	}

	// Provider records expire on their own, longer TTL.
	infos := []wire.PeerInfo{{}}
	c.PutProviders(root, infos)
	if got := c.Providers(root); len(got) != 1 {
		t.Fatalf("Providers = %d records, want 1", len(got))
	}
	clock.Advance(10*time.Minute + time.Second)
	if got := c.Providers(root); got != nil {
		t.Fatalf("provider record survived past its TTL: %v", got)
	}
}

// countingSource is a wall-clock Source (not a Scheduler) whose Sleep
// only counts.
type countingSource struct {
	simtime.Source
	slept []time.Duration
}

func (s *countingSource) Sleep(_ context.Context, d time.Duration) error {
	s.slept = append(s.slept, d)
	return nil
}

// wallClockFleet builds a fleet of n instances over a small testnet, on
// a countingSource.
func wallClockFleet(t *testing.T, n int, cfg Config) (*Fleet, *countingSource) {
	t.Helper()
	tn := testnet.Build(testnet.Config{
		N: 20, Seed: 5,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	src := &countingSource{Source: simtime.OrWall(nil)}
	cfg.Time = src
	return New(tn.AddGatewayFleet(n, 900, nil), cfg), src
}

// TestFleetTierOrder pins where the fleet slots its two tiers: below
// the instance's node store, the shared object cache above the
// negative cache, both above the origin.
func TestFleetTierOrder(t *testing.T) {
	f, _ := wallClockFleet(t, 1, Config{})
	ctx := context.Background()
	data := []byte("pinned, shared and known missing all at once")
	root, err := f.Gateway(0).Pin(data)
	if err != nil {
		t.Fatal(err)
	}
	req := gateway.Request{Cid: root}
	objectTier{f.shared}.Put(req, gateway.Object{data})
	f.shared.NoteMissing(root)
	if resp := f.Fetch(ctx, req); resp.Tier != gateway.TierNodeStore || resp.Err != nil {
		t.Errorf("pinned + shared + negative: served by %v (err %v), want the node store", resp.Tier, resp.Err)
	}

	onlyShared := gateway.Request{Cid: cid.SumV0([]byte("shared and known missing"))}
	objectTier{f.shared}.Put(onlyShared, gateway.Object{[]byte("shared and known missing")})
	f.shared.NoteMissing(onlyShared.Cid)
	if resp := f.Fetch(ctx, onlyShared); resp.Tier != gateway.TierShared || resp.Err != nil {
		t.Errorf("shared + negative: served by %v (err %v), want the shared cache", resp.Tier, resp.Err)
	}

	missing := gateway.Request{Cid: cid.SumV0([]byte("known missing"))}
	f.shared.NoteMissing(missing.Cid)
	if resp := f.Fetch(ctx, missing); !errors.Is(resp.Err, ErrKnownMissing) {
		t.Errorf("negative only: err = %v, want ErrKnownMissing before any origin attempt", resp.Err)
	}
	if st := f.Stats(); st.NodeStore != 1 || st.SharedHits != 1 || st.NegativeHits != 1 || st.OriginFetch+st.OriginFail != 0 {
		t.Errorf("stats = %+v, want one node-store, one shared, one negative hit and no origin attempt", st)
	}
	if n := len(f.Gateway(0).Log()); n != 3 {
		t.Errorf("instance logged %d entries for 3 requests", n)
	}
}

// TestWallClockFleetDoesNotSleepModelledLatency pins the daemon's side
// of the tier model: off the simulated clock a node-store hit and a
// shared-cache hit still report their modelled latency, and sleep none
// of it.
func TestWallClockFleetDoesNotSleepModelledLatency(t *testing.T) {
	f, src := wallClockFleet(t, 1, Config{})
	ctx := context.Background()

	pinned, err := f.Gateway(0).Pin([]byte("pinned at the edge"))
	if err != nil {
		t.Fatal(err)
	}
	resp := f.Fetch(ctx, gateway.Request{Cid: pinned})
	if resp.Err != nil || resp.Tier != gateway.TierNodeStore || resp.Latency != gateway.NodeStoreLatency {
		t.Errorf("pinned fetch = %+v, want a node-store hit reporting %v", resp, gateway.NodeStoreLatency)
	}

	shared := gateway.Request{Cid: cid.SumV0([]byte("held by the fleet"))}
	objectTier{f.shared}.Put(shared, gateway.Object{[]byte("held by the fleet")})
	resp = f.Fetch(ctx, shared)
	if resp.Err != nil || resp.Tier != gateway.TierShared || resp.Latency != SharedCacheLatency {
		t.Errorf("shared fetch = %+v, want a shared-cache hit reporting %v", resp, SharedCacheLatency)
	}
	if again := f.Fetch(ctx, shared); again.Tier != gateway.TierNginx {
		t.Errorf("repeat fetch served from %v, want the nginx cache the shared hit filled", again.Tier)
	}

	if len(src.slept) != 0 {
		t.Errorf("fleet on the wall clock slept %v; modelled latencies must only be reported", src.slept)
	}
	if st := f.Stats(); st.NodeStore != 1 || st.SharedHits != 1 || st.LocalHits != 1 {
		t.Errorf("stats = %+v, want one hit each at node store, shared and nginx", st)
	}
}

// TestServeHTTPShed drives the HTTP face of admission control: with
// every candidate instance saturated, the fleet answers 503 with a
// Retry-After hint, in whole seconds rounded up, instead of queueing
// without bound.
func TestServeHTTPShed(t *testing.T) {
	f, _ := wallClockFleet(t, 2, Config{MaxInflight: 1, QueueHigh: 1})
	// Saturate both instances past the high watermark and latch them.
	for _, inst := range f.insts {
		inst.inflight.Store(int64(f.cfg.MaxInflight + f.cfg.QueueHigh))
		inst.shedding.Store(true)
	}

	c := cid.SumV0([]byte("hot content"))
	for _, tc := range []struct {
		retryAfter time.Duration
		want       string
	}{
		{2 * time.Second, "2"},
		{300 * time.Millisecond, "1"},
		{1500 * time.Millisecond, "2"},
	} {
		f.cfg.RetryAfter = tc.retryAfter
		before := f.Stats()
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ipfs/"+c.String(), nil))

		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("status = %d, want %d", rec.Code, http.StatusServiceUnavailable)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("RetryAfter %v: Retry-After = %q, want %q", tc.retryAfter, got, tc.want)
		}
		if st := f.Stats().Sub(before); st.Shed != 1 || st.Requests != 1 {
			t.Errorf("stats = %+v, want 1 request / 1 shed", st)
		}
	}
}

package experiments

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/routing"
	"repro/internal/simtime/simtest"
	"repro/internal/testnet"
	"repro/internal/wire"
)

// The three canned fault scenarios are read-only after Run, and several
// tests render different views of each (degradation assertions, golden
// pins, budget checks) — one seeded execution serves them all.
var (
	lossOnce sync.Once
	lossRes  *RoutingResults

	partOnce sync.Once
	partRes  *RoutingResults

	mixOnce sync.Once
	mixRes  *RoutingResults
)

func lossSweepResults() *RoutingResults {
	lossOnce.Do(func() { lossRes = LossSweepScenario(42) })
	return lossRes
}

func partitionHealResults() *RoutingResults {
	partOnce.Do(func() { partRes = PartitionHealScenario(42) })
	return partRes
}

func reachabilityMixResults() *RoutingResults {
	mixOnce.Do(func() { mixRes = ReachabilityMixScenario(42) })
	return mixRes
}

// TestLossSweepDegradesHitRateMonotonically runs scenario (a) and
// asserts every router's hit rate is a monotone (within per-tick draw
// slack) non-increasing function of the link-loss rate, with the sweep
// endpoints decisively separated — the degradation curve the paper's
// adversarial conditions predict. The drops must also be visible in the
// budget: lost requests surface as a distinct counter, not as silence.
func TestLossSweepDegradesHitRateMonotonically(t *testing.T) {
	res := lossSweepResults()
	if res.SchedStalls != 0 {
		t.Fatalf("scheduler stalled %d times: the lossy run left a wait uninstrumented", res.SchedStalls)
	}
	for _, rp := range res.Routers {
		if len(rp.Ticks) != len(LossSweepRates) {
			t.Fatalf("%s: %d ticks, want one per sweep rate (%d)", rp.Kind, len(rp.Ticks), len(LossSweepRates))
		}
		for i, tick := range rp.Ticks {
			if tick.LossRate != LossSweepRates[i] {
				t.Errorf("%s tick %d: loss rate in force = %.2f, want %.2f (transition phase did not land)",
					rp.Kind, i, tick.LossRate, LossSweepRates[i])
			}
			if math.IsNaN(tick.HitRate()) {
				t.Fatalf("%s tick %d: no retrievals ran", rp.Kind, i)
			}
		}
		first := rp.Ticks[0].HitRate()
		last := rp.Ticks[len(rp.Ticks)-1].HitRate()
		if first < 0.9 {
			t.Errorf("%s: clean-link baseline hit rate = %.2f, want ≥ 0.9", rp.Kind, first)
		}
		for i := 1; i < len(rp.Ticks); i++ {
			prev, cur := rp.Ticks[i-1].HitRate(), rp.Ticks[i].HitRate()
			// A hair of slack between adjacent rates (per-object draw
			// noise); the trend must stay downward.
			if cur > prev+0.1 {
				t.Errorf("%s: hit rate rose from %.2f (loss %.0f%%) to %.2f (loss %.0f%%)",
					rp.Kind, prev, 100*rp.Ticks[i-1].LossRate, cur, 100*rp.Ticks[i].LossRate)
			}
		}
		if first-last < 0.3 {
			t.Errorf("%s: hit rate barely degraded: %.2f at 0%% loss vs %.2f at %.0f%% loss",
				rp.Kind, first, last, 100*LossSweepRates[len(LossSweepRates)-1])
		}
	}
	if res.Budget.Dropped == 0 {
		t.Error("a 0→30% loss sweep dropped no requests: the fault model is not wired to the budget")
	}
	var catSum int64
	for cat, v := range res.Budget.DroppedByCategory {
		if v < 0 {
			t.Errorf("negative drop count for category %s", cat)
		}
		catSum += v
	}
	if catSum != res.Budget.Dropped {
		t.Errorf("per-category drops sum to %d, total is %d", catSum, res.Budget.Dropped)
	}
	for _, name := range []string{"loss->0%", "loss->10%", "loss->20%", "loss->30%"} {
		if res.Phase(name) == nil {
			t.Errorf("loss sweep scheduled no %q transition phase", name)
		}
	}
	if ps := res.Phase("loss->30%"); ps != nil && ps.LossRate != 0.30 {
		t.Errorf("loss->30%% phase row reports rate %.2f, want the state it installed", ps.LossRate)
	}
}

// TestPartitionHealRestoresHitRate runs scenario (b): the vantage
// regions are cut off at 3h and healed at 5h of a 12h window. The tick
// before the cut must be clean, the tick inside the partition must fail
// outright with the partition state on its row, and the first tick
// after the heal — which follows the mid-window snapshot refresh — must
// be fully recovered: healing restores the hit rate within one refresh
// interval.
func TestPartitionHealRestoresHitRate(t *testing.T) {
	res := partitionHealResults()
	if res.SchedStalls != 0 {
		t.Fatalf("scheduler stalled %d times", res.SchedStalls)
	}
	pp := res.Phase("partition")
	if pp == nil {
		t.Fatal("no partition phase ran")
	}
	if pp.Partitioned != 2 {
		t.Errorf("partition phase row covers %d regions, want 2", pp.Partitioned)
	}
	hp := res.Phase("heal")
	if hp == nil {
		t.Fatal("no heal phase ran")
	}
	if hp.Partitioned != 0 {
		t.Errorf("heal phase row still shows %d partitioned regions", hp.Partitioned)
	}
	for _, rp := range res.Routers {
		if len(rp.Ticks) != 6 {
			t.Fatalf("%s: %d ticks, want 6", rp.Kind, len(rp.Ticks))
		}
		pre, cut, rec := rp.Ticks[0], rp.Ticks[1], rp.Ticks[2]
		if pre.Partitioned != 0 || pre.HitRate() < 0.99 {
			t.Errorf("%s at +2h (before the cut): hit %.2f with %d partitioned regions, want clean 1.00",
				rp.Kind, pre.HitRate(), pre.Partitioned)
		}
		if cut.Partitioned != 2 {
			t.Errorf("%s at +4h: tick does not carry the partition state (%d regions)", rp.Kind, cut.Partitioned)
		}
		if cut.HitRate() > 0.01 {
			t.Errorf("%s at +4h (inside the partition): hit %.2f, want total failure — the vantages' regions are cut off",
				rp.Kind, cut.HitRate())
		}
		if rec.Partitioned != 0 {
			t.Errorf("%s at +6h: partition state lingers after the heal (%d regions)", rp.Kind, rec.Partitioned)
		}
		if rec.HitRate() < 0.99 {
			t.Errorf("%s at +6h (first tick after heal+refresh): hit %.2f, want full recovery within one refresh interval",
				rp.Kind, rec.HitRate())
		}
	}
	if res.Budget.DialFailures == 0 {
		t.Error("a mid-window partition caused no dial failures")
	}
}

// TestReachabilityMixBurnsDialBudget runs scenario (c) against a
// control run that differs only in the reachability mix: with roughly a
// third of the population NAT'd — online, originating traffic, refusing
// inbound dials — routers must burn strictly more failed dials to move
// the same workload.
func TestReachabilityMixBurnsDialBudget(t *testing.T) {
	res := reachabilityMixResults()
	if res.SchedStalls != 0 {
		t.Fatalf("scheduler stalled %d times", res.SchedStalls)
	}
	for _, rp := range res.Routers {
		if len(rp.Ticks) != 4 {
			t.Fatalf("%s: %d ticks, want 4", rp.Kind, len(rp.Ticks))
		}
		if rp.Retrievals == 0 {
			t.Fatalf("%s: no retrievals ran", rp.Kind)
		}
	}
	cfg := faultScenarioDefaults(42)
	cfg.Window = 12 * time.Hour
	cfg.Ticks = 4
	cfg.ChurnAmplitude = 1
	control := RunRoutingComparison(cfg)
	if res.Budget.DialFailures <= control.Budget.DialFailures {
		t.Errorf("NAT'd cohort burned %d failed dials vs %d without the mix, want strictly more",
			res.Budget.DialFailures, control.Budget.DialFailures)
	}
}

// TestAcceleratedFallbackCarriesUnreachableSnapshot pins the
// stale-snapshot fallback under an unreachable cohort deterministically:
// a getter whose one-hop snapshot holds only NAT'd (undialable) peers
// cannot route a session — every direct RPC dies on the dial — but the
// retrieval must still succeed through the iterative-walk fallback. The
// control retrieval with a freshly crawled snapshot routes its session.
func TestAcceleratedFallbackCarriesUnreachableSnapshot(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 80, Seed: 21, K: 4,
		QueryTimeout: 30 * time.Second, BitswapTimeout: 30 * time.Second,
		ReachabilityMix: true,
		FracDead:        1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		pub := tn.AddVantageRouting(geo.EuCentral1, 301, routing.KindAccelerated, nil)
		get := tn.AddVantageRouting(geo.UsWest1, 302, routing.KindAccelerated, nil)
		if _, err := pub.RefreshRoutingSnapshot(ctx); err != nil {
			t.Fatalf("publisher crawl: %v", err)
		}
		if _, err := get.RefreshRoutingSnapshot(ctx); err != nil {
			t.Fatalf("getter crawl: %v", err)
		}
		payload := make([]byte, 16*1024)
		for i := range payload {
			payload[i] = byte(i)
		}
		pubRes, err := pub.AddAndPublish(ctx, payload)
		if err != nil {
			t.Fatalf("publish: %v", err)
		}

		testnet.FlushVantage(get)
		data, rres, err := get.Retrieve(ctx, pubRes.Cid)
		if err != nil || len(data) != len(payload) {
			t.Fatalf("control retrieval failed: %v (%d bytes)", err, len(data))
		}
		if !rres.RoutedSession {
			t.Fatal("control retrieval with a fresh snapshot did not route its session")
		}
		get.ClearStore()

		var nat []wire.PeerInfo
		for _, node := range tn.Nodes {
			if !tn.Net.Dialable(node.ID()) {
				nat = append(nat, node.Info())
			}
		}
		if len(nat) < 4 {
			t.Fatalf("reachability mix produced only %d NAT'd peers in an 80-peer population", len(nat))
		}
		get.Accelerated().SetSnapshot(nat)

		testnet.FlushVantage(get)
		data, rres, err = get.Retrieve(ctx, pubRes.Cid)
		if err != nil || len(data) != len(payload) {
			t.Fatalf("retrieval with an undialable-only snapshot failed outright: %v (%d bytes) — the walk fallback did not engage", err, len(data))
		}
		if rres.RoutedSession {
			t.Error("session routed through a snapshot of exclusively undialable peers")
		}
	})
}

// faultDeterminismConfig is the lossy, partitioned, NAT-mixed scenario
// the determinism tests replay: every fault lever at once, in lockstep,
// with the seeded jitter hash carrying all loss and delay draws.
func faultDeterminismConfig(n int) RoutingConfig {
	return RoutingConfig{
		NetworkSize:      n,
		Objects:          2,
		Ticks:            2,
		Window:           8 * time.Hour,
		ChurnAmplitude:   2,
		Kinds:            []routing.Kind{routing.KindDHT, routing.KindIndexer},
		LinkLoss:         0.15,
		LinkJitter:       200 * time.Millisecond,
		PartitionRegions: []geo.Region{geo.UsWest1, "US"},
		PartitionAt:      3 * time.Hour,
		HealAt:           5 * time.Hour,
		ReachabilityMix:  true,
		NoRefresh:        true,
		Workers:          1,
		Seed:             88,
	}
}

func checkFaultDeterminism(t *testing.T, cfg RoutingConfig) {
	t.Helper()
	a := RunRoutingComparison(cfg)
	b := RunRoutingComparison(cfg)
	for _, res := range []*RoutingResults{a, b} {
		if res.SchedStalls != 0 {
			t.Fatalf("scheduler stalled %d times: an uninstrumented wait forfeits deterministic fault replay", res.SchedStalls)
		}
	}
	if a.Budget.Dropped == 0 {
		t.Error("the lossy run dropped nothing: loss draws never fired")
	}
	if as, bs := a.TimeSeries(), b.TimeSeries(); as != bs {
		t.Errorf("seeded lossy runs diverged in the phase time series\nrun A:\n%s\nrun B:\n%s", as, bs)
	}
	if a.Budget.String() != b.Budget.String() {
		t.Errorf("seeded lossy runs diverged in the cumulative budget:\n%v\nvs\n%v", a.Budget, b.Budget)
	}
	if at, bt := a.Table(), b.Table(); at != bt {
		t.Errorf("seeded lossy runs diverged in the router comparison\nrun A:\n%s\nrun B:\n%s", at, bt)
	}
	if a.SchedEvents != b.SchedEvents {
		t.Errorf("seeded lossy runs dispatched different event counts: %d vs %d", a.SchedEvents, b.SchedEvents)
	}
}

// TestEventDrivenFaultDeterminism replays a small seeded run with every
// fault lever engaged — 15% link loss, 200ms jitter, a partition cut
// and healed mid-window, the NAT'd reachability mix — twice on the
// lockstep scheduler and demands bit-for-bit identical output, drops
// and all.
func TestEventDrivenFaultDeterminism(t *testing.T) {
	checkFaultDeterminism(t, faultDeterminismConfig(300))
}

// TestParallelRouterReplaysUnderScheduler is the regression test for
// the parallel router racing outside the node's scheduler: the
// partition-heal scenario restricted to the parallel kind — every
// publish, session consult and provider stream a member race — must
// replay byte for byte. With the racers on plain goroutines (a router
// built without the node's time source) six runs gave six outputs, all
// with zero stalls.
func TestParallelRouterReplaysUnderScheduler(t *testing.T) {
	cfg := partitionHealConfig(42)
	cfg.Kinds = []routing.Kind{routing.KindParallel}
	render := func(res *RoutingResults) string {
		return fmt.Sprintf("%s\n%s\n%v\nevents %d", res.TimeSeries(), res.Table(), res.Budget, res.SchedEvents)
	}
	var first string
	for run := 0; run < 6; run++ {
		res := RunRoutingComparison(cfg)
		if res.SchedStalls != 0 {
			t.Fatalf("run %d: scheduler stalled %d times", run, res.SchedStalls)
		}
		if got := render(res); run == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d of the seeded parallel-router scenario diverged from run 0\nrun 0:\n%s\nrun %d:\n%s", run, first, run, got)
		}
	}
}

// TestEventDrivenFaultDeterminism20k is the same contract at paper
// scale: two seeded event-driven 20k-peer lossy runs must agree on the
// full time series, every budget row, and the event count, with zero
// stalls.
func TestEventDrivenFaultDeterminism20k(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-peer scenario skipped in -short mode")
	}
	checkFaultDeterminism(t, faultDeterminismConfig(20000))
}

// TestLossSweepTimeSeriesGolden pins scenario (a)'s full rendered
// output — the time series with the new Loss/Part/drop columns and the
// per-tick degradation table — as a golden. The run is event-driven
// lockstep, so every column (including exact RPC and drop counts) is
// deterministic and the golden can pin all of it.
func TestLossSweepTimeSeriesGolden(t *testing.T) {
	res := lossSweepResults()
	goldenCompare(t, "loss_sweep.golden", res.TimeSeries()+"\n"+res.DegradationTable())
}

// TestPartitionHealTimeSeriesGolden pins scenario (b)'s time series:
// the partition and heal transition rows, the partition-state column
// flipping 0 → 2 → 0, and the hit-rate collapse and recovery around
// them.
func TestPartitionHealTimeSeriesGolden(t *testing.T) {
	goldenCompare(t, "partition_heal.golden", partitionHealResults().TimeSeries())
}

// TestReachabilityMixDegradationGolden pins scenario (c)'s summary
// table: the per-tick hit rates every router sustains when a third of
// the population refuses inbound dials under the paper's churn model.
func TestReachabilityMixDegradationGolden(t *testing.T) {
	goldenCompare(t, "reachability_mix.golden", reachabilityMixResults().DegradationTable())
}

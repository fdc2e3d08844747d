package experiments

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/transport"
)

// TestChurnScenarioFallbackRisesWithAmplitude sweeps the timeline churn
// amplitude with a deliberately small replication factor and asserts
// the accelerated router's fallback rate (retrievals its stale snapshot
// could not feed a session for) rises with churn: the Fig 8-style
// session dynamics the scenario engine exists to stress.
func TestChurnScenarioFallbackRisesWithAmplitude(t *testing.T) {
	cases := []struct {
		name string
		amp  float64
	}{
		{"calm", 0.25},
		{"paper", 1},
		{"stormy", 3},
		{"extreme", 6},
	}
	if testing.Short() {
		// Keep the endpoints of the sweep in -short (race) CI runs.
		cases = []struct {
			name string
			amp  float64
		}{{"calm", 0.25}, {"extreme", 6}}
	}
	rates := make([]float64, len(cases))
	ran := 0
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ran++
			res := RunRoutingComparison(RoutingConfig{
				NetworkSize: 120, Objects: 3, Ticks: 2, Window: 8 * time.Hour,
				K: 4, ChurnAmplitude: tc.amp,
				Kinds:       []routing.Kind{routing.KindAccelerated},
				NoRepublish: true, NoRefresh: true,
				BitswapTimeout: 30 * time.Second, QueryTimeout: 30 * time.Second,
				Seed: 33,
			})
			rp := res.Router(routing.KindAccelerated)
			if rp == nil || rp.Retrievals == 0 {
				t.Fatal("no accelerated retrievals ran")
			}
			if len(rp.Ticks) != 2 {
				t.Fatalf("per-tick series has %d entries, want 2", len(rp.Ticks))
			}
			rates[i] = rp.FallbackRate()
			if math.IsNaN(rates[i]) {
				t.Fatal("fallback rate is NaN")
			}
		})
	}
	if ran != len(cases) || t.Failed() {
		// A -run filter (or an already-failed subtest) left placeholder
		// zeros in rates; cross-amplitude comparisons would misfire.
		t.Logf("skipping cross-amplitude assertions: %d/%d subtests ran", ran, len(cases))
		return
	}
	for i := 1; i < len(rates); i++ {
		// Allow a hair of slack between adjacent amplitudes; the sweep
		// endpoints must separate decisively.
		if rates[i] < rates[i-1]-0.01 {
			t.Errorf("fallback rate fell from %.2f (amp %.2f) to %.2f (amp %.2f), want non-decreasing",
				rates[i-1], cases[i-1].amp, rates[i], cases[i].amp)
		}
	}
	if last, first := rates[len(rates)-1], rates[0]; last < first+0.25 {
		t.Errorf("fallback rate barely moved: %.2f at amp %.2f vs %.2f at amp %.2f",
			first, cases[0].amp, last, cases[len(cases)-1].amp)
	}
}

// TestChurnScenarioIndexerHitDegradesWithStaleness runs the indexer
// router across ticks that cross its record TTL with no republish
// cycle: the sampled hit rate must degrade monotonically as the
// staleness window grows, and retrievals past expiry must stop being
// router-fed.
func TestChurnScenarioIndexerHitDegradesWithStaleness(t *testing.T) {
	res := RunRoutingComparison(RoutingConfig{
		NetworkSize: 100, Objects: 3, Ticks: 3, Window: 9 * time.Hour,
		IndexerTTL:  4 * time.Hour,
		Kinds:       []routing.Kind{routing.KindIndexer},
		NoRepublish: true, NoRefresh: true,
		BitswapTimeout: 30 * time.Second, QueryTimeout: 30 * time.Second,
		Seed: 44,
	})
	rp := res.Router(routing.KindIndexer)
	if rp == nil || len(rp.Ticks) != 3 {
		t.Fatalf("indexer tick series = %+v, want 3 ticks", rp)
	}
	for i, tk := range rp.Ticks {
		if math.IsNaN(tk.IndexerHit) {
			t.Fatalf("tick %d: indexer hit rate not sampled", i)
		}
		if i > 0 && tk.IndexerHit > rp.Ticks[i-1].IndexerHit {
			t.Errorf("hit rate rose from %.2f to %.2f at tick %d despite no republish",
				rp.Ticks[i-1].IndexerHit, tk.IndexerHit, i)
		}
	}
	first, last := rp.Ticks[0], rp.Ticks[len(rp.Ticks)-1]
	if first.IndexerHit != 1 {
		t.Errorf("hit rate before expiry = %.2f, want 1.0 (TTL 4h, first tick 3h)", first.IndexerHit)
	}
	if last.IndexerHit != 0 {
		t.Errorf("hit rate after expiry = %.2f, want 0.0 (TTL 4h, last tick 9h)", last.IndexerHit)
	}
	if first.RoutedSessions == 0 {
		t.Error("no routed sessions while records were fresh")
	}
	if last.RoutedSessions != 0 {
		t.Errorf("%d routed sessions after every record expired", last.RoutedSessions)
	}
}

// TestScenarioRunnerScheduleAndBudget unit-tests the engine itself:
// phases run in offset order regardless of insertion order, each phase
// sees timeline liveness applied before its workload, and the sampled
// per-phase budgets carry the spend of exactly that phase.
func TestScenarioRunnerScheduleAndBudget(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 40, Seed: 5,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	sc := NewScenarioRunner(tn, ScenarioConfig{Window: 6 * time.Hour, Seed: 9})

	vantage := tn.AddVantage("DE", 77)
	var order []string
	noop := func(name string) func(context.Context, PhaseInfo) PhaseOutcome {
		return func(ctx context.Context, info PhaseInfo) PhaseOutcome {
			order = append(order, name)
			if got := tn.Sched.Now(); !got.Equal(info.Now) {
				t.Errorf("phase %s: virtual clock %v != phase instant %v", name, got, info.Now)
			}
			if info.Online <= 0 {
				t.Errorf("phase %s: liveness not applied before the workload", name)
			}
			return PhaseOutcome{Ops: 1}
		}
	}
	// Insert out of order; Run must sort by offset.
	sc.Schedule("late", 6*time.Hour, noop("late"))
	sc.Schedule("early", 0, noop("early"))
	sc.Schedule("mid", 3*time.Hour, func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
		order = append(order, "mid")
		// Spend some budget so the per-phase delta is observable.
		vantage.DHT().PublishPeerRecord(ctx)
		return PhaseOutcome{Ops: 1}
	})

	samples := sc.Run(context.Background())
	if want := []string{"early", "mid", "late"}; strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("phase order = %v, want %v", order, want)
	}
	if len(samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(samples))
	}
	for i, ps := range samples {
		if ps.Online <= 0 || ps.Online > 40 {
			t.Errorf("sample %d: online = %d, want within (0, 40]", i, ps.Online)
		}
		if !math.IsNaN(ps.SnapshotStale) || !math.IsNaN(ps.IndexerHit) {
			t.Errorf("sample %d: health should be NaN with no observed routers", i)
		}
	}
	if samples[1].Budget.Requests == 0 {
		t.Error("mid phase published a peer record but its budget delta is empty")
	}
	if samples[0].Budget.Requests != 0 || samples[2].Budget.Requests != 0 {
		t.Errorf("idle phases charged a budget: %v / %v", samples[0].Budget, samples[2].Budget)
	}
	// Per-phase deltas must sum to the network's cumulative budget.
	var sum int64
	for _, ps := range samples {
		sum += ps.Budget.Requests
	}
	if total := tn.Net.Budget().Requests; sum != total {
		t.Errorf("phase budget deltas sum to %d, network total is %d", sum, total)
	}
}

// goldenCompare diffs got against the golden file, regenerating it when
// UPDATE_GOLDEN=1 is set.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run with UPDATE_GOLDEN=1 to create)", err)
	}
	if string(want) != got {
		t.Errorf("output differs from %s (rerun with UPDATE_GOLDEN=1 after reviewing):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenScenarioResults is the seeded run the golden test renders: two
// one-hop routers over a sharded two-by-two indexer fleet, a record
// TTL crossed mid-window, and the default mid-window refresh/republish
// phases — expiry at +6h, republish recovery at +8h, re-expiry at
// +12h — so the per-shard hit-rate and replica-availability columns
// carry real data.
var (
	goldenOnce sync.Once
	goldenRes  *RoutingResults
)

func goldenScenarioResults() *RoutingResults {
	// Three tests render different views of the same seeded run; it is
	// read-only after Run, so one execution serves them all.
	goldenOnce.Do(func() {
		goldenRes = RunRoutingComparison(RoutingConfig{
			NetworkSize: 90, Objects: 2, Ticks: 3, Window: 12 * time.Hour,
			IndexerTTL:    5 * time.Hour,
			IndexerShards: 2, IndexerReplicas: 2,
			Kinds:          []routing.Kind{routing.KindAccelerated, routing.KindIndexer},
			BitswapTimeout: 30 * time.Second, QueryTimeout: 30 * time.Second,
			Seed: 99,
		})
	})
	return goldenRes
}

// TestRoutingTimeSeriesGolden pins the experiment's full time-series
// output — span-derived and exact-RPC columns included — so behaviour
// and CLI formatting changes both show up as reviewable golden diffs.
func TestRoutingTimeSeriesGolden(t *testing.T) {
	goldenCompare(t, "routing_timeseries.golden", goldenScenarioResults().TimeSeries())
}

// TestRoutingTimeSeriesFormatGolden pins the full time-series and
// budget-report layout against synthetic fixed samples.
func TestRoutingTimeSeriesFormatGolden(t *testing.T) {
	res := &RoutingResults{
		Cfg:     RoutingConfig{NetworkSize: 100, Window: 12 * time.Hour, ChurnAmplitude: 1.5}.withDefaults(),
		Routers: []*RouterPerf{newRouterPerf(routing.KindAccelerated), newRouterPerf(routing.KindIndexer)},
		Phases: []PhaseSample{
			{
				Phase: "publish", Offset: 0, Online: 47,
				SnapshotStale: math.NaN(), IndexerHit: math.NaN(), ReplicaUp: 1,
				DiscoverP99: math.NaN(), FirstHopShare: math.NaN(), TracedOps: 4,
				Budget: simnet.Budget{Requests: 410, Dials: 600, DialFailures: 120,
					ByCategory: map[transport.RPCCategory]int64{
						transport.CatLookup: 90, transport.CatPublish: 140, transport.CatRefresh: 180,
					}},
				PhaseOutcome: PhaseOutcome{Ops: 4},
			},
			{
				// A tick during a one-replica-per-shard outage: shard 1 lost
				// its primary's records, availability sits at half, and the
				// surviving replicas' gossip shows in the budget breakdown.
				// The link fault model is also engaged — 20% loss, a
				// two-region partition — so the Loss/Part columns and the
				// drop counter render real values.
				Phase: "retrieve+6h", Offset: 6 * time.Hour, Online: 42,
				SnapshotStale: 0.25, IndexerHit: 1,
				ShardHits: []float64{1, 0.5}, ReplicaUp: 0.5,
				LossRate: 0.2, Partitioned: 2,
				DiscoverP99: 0.84, FirstHopShare: 0.75, TracedOps: 4,
				Budget: simnet.Budget{Requests: 41, Dials: 24, DialFailures: 5,
					ByCategory: map[transport.RPCCategory]int64{
						transport.CatLookup: 11, transport.CatWant: 26, transport.CatGossip: 4,
					},
					Dropped: 7, Retried: 2,
					DroppedByCategory: map[transport.RPCCategory]int64{
						transport.CatLookup: 5, transport.CatWant: 2,
					}},
				PhaseOutcome: PhaseOutcome{Ops: 4, Failures: 1, Routed: 3},
			},
			{
				// A batched republish cycle: 10 CIDs plus the peer record
				// refreshed with fewer republish-category RPCs than CIDs —
				// the per-target-peer grouping the budget columns must keep
				// showing.
				Phase: "republish", Offset: 6*time.Hour + time.Minute, Online: 41,
				SnapshotStale: 0.3, IndexerHit: 0,
				ShardHits: []float64{0, 0}, ReplicaUp: 0.5,
				DiscoverP99: math.NaN(), FirstHopShare: math.NaN(), TracedOps: 1,
				Budget: simnet.Budget{Requests: 9, Dials: 9, DialFailures: 2,
					ByCategory: map[transport.RPCCategory]int64{transport.CatRepublish: 9}},
				PhaseOutcome: PhaseOutcome{Ops: 11},
			},
		},
		Budget: simnet.Budget{Requests: 460, Dials: 633, DialFailures: 127,
			ByCategory: map[transport.RPCCategory]int64{
				transport.CatLookup: 101, transport.CatPublish: 140, transport.CatRepublish: 9,
				transport.CatRefresh: 180, transport.CatWant: 26, transport.CatGossip: 4,
			},
			Dropped: 7, Retried: 2,
			DroppedByCategory: map[transport.RPCCategory]int64{
				transport.CatLookup: 5, transport.CatWant: 2,
			}},
	}
	goldenCompare(t, "routing_timeseries_format.golden", res.TimeSeries()+"\n"+res.BudgetReport())
}

// TestRetrieveTraceGolden pins one seeded retrieval's span tree and
// JSONL export, measured durations included: the golden diff shows
// exactly how a code change reshapes the discover/first-provider/fetch
// delay decomposition.
func TestRetrieveTraceGolden(t *testing.T) {
	res := goldenScenarioResults()
	var tr *telemetry.Trace
	for _, cand := range res.Traces {
		if cand.Op != "retrieve" || cand.FindSpan("discover") == nil {
			continue
		}
		router := ""
		for _, a := range cand.Root().Attrs() {
			if a.Key == "router" {
				router = a.Value
			}
		}
		if strings.HasPrefix(router, string(routing.KindIndexer)) {
			tr = cand
			break
		}
	}
	if tr == nil {
		t.Fatal("golden run produced no indexer retrieve trace with a discover span")
	}
	var jsonl strings.Builder
	if err := tr.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "retrieve_trace.golden", tr.Tree()+"\n"+jsonl.String())
}

// TestRoutingTimeSeriesStructure asserts the live experiment output
// carries what the golden cannot pin: every scheduled phase, per-phase
// budgets that sum to the cumulative report, and category totals that
// add up to the request total.
func TestRoutingTimeSeriesStructure(t *testing.T) {
	res := goldenScenarioResults()
	if len(res.Phases) != 6 { // publish + 3 retrieves + refresh + republish
		t.Fatalf("phases = %d, want 6", len(res.Phases))
	}
	var phaseSum int64
	for _, ps := range res.Phases {
		phaseSum += ps.Budget.Requests
	}
	if phaseSum != res.Budget.Requests {
		t.Errorf("per-phase budgets sum to %d, cumulative reports %d", phaseSum, res.Budget.Requests)
	}
	var catSum int64
	for _, cat := range simnet.BudgetCategories {
		catSum += res.Budget.Category(cat)
	}
	if catSum != res.Budget.Requests {
		t.Errorf("category counts sum to %d, total is %d", catSum, res.Budget.Requests)
	}
	// The observed recorders' traces surface on the results and their
	// per-phase counts tie out; the retrieval ticks carry span-derived
	// discover percentiles.
	if len(res.Traces) == 0 {
		t.Fatal("no traces collected from the vantage recorders")
	}
	traced := 0
	for _, ps := range res.Phases {
		traced += ps.TracedOps
	}
	if traced != len(res.Traces) {
		t.Errorf("per-phase TracedOps sum to %d, results carry %d traces", traced, len(res.Traces))
	}
	for _, ps := range res.Phases {
		if !strings.HasPrefix(ps.Phase, "retrieve") {
			continue
		}
		if math.IsNaN(ps.DiscoverP99) || ps.DiscoverP99 < 0 {
			t.Errorf("phase %s: discover p99 = %v, want a sampled value", ps.Phase, ps.DiscoverP99)
		}
		if math.IsNaN(ps.FirstHopShare) {
			t.Errorf("phase %s: first-hop share not sampled", ps.Phase)
		}
	}
	if res.Metrics.Counters[`retrieves_total{router=indexer}`] == 0 {
		t.Errorf("aggregated metrics missing indexer retrieves: %v", res.Metrics.Counters)
	}
	ts := res.TimeSeries()
	for _, want := range []string{"publish", "refresh", "republish", "retrieve+4h", "retrieve+8h", "retrieve+12h", "lookup", "want", "ShardHit", "IxUp", "Disc99", "FirstHop", "gossip"} {
		if !strings.Contains(ts, want) {
			t.Errorf("time series missing %q:\n%s", want, ts)
		}
	}
	// The golden run observes a 2×2 fleet: replica gossip must show up
	// in the budget and every post-publish sample must carry per-shard
	// hit rates.
	if res.Budget.Category(transport.CatGossip) == 0 {
		t.Error("no gossip traffic in the sharded golden run")
	}
	for _, ps := range res.Phases[1:] {
		if len(ps.ShardHits) != 2 {
			t.Errorf("phase %s: per-shard hit rates = %v, want 2 shards", ps.Phase, ps.ShardHits)
		}
		if math.IsNaN(ps.ReplicaUp) {
			t.Errorf("phase %s: replica availability not sampled", ps.Phase)
		}
	}
	if br := res.BudgetReport(); !strings.Contains(br, "requests") || !strings.Contains(br, "refresh") {
		t.Errorf("budget report incomplete: %s", br)
	}
}

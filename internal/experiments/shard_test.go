package experiments

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/multicodec"
	"repro/internal/routing"
	"repro/internal/testnet"
	"repro/internal/transport"
)

// TestIndexerShardFailoverKeepsHitRate is the availability contract of
// the sharded deployment, table-driven against the single-indexer
// baseline: with one replica per shard taken offline mid-window under
// the same churn amplitude, the replica groups keep answering — the
// per-tick hit rate stays up and sessions stay router-fed — while the
// single indexer's coverage collapses to zero.
func TestIndexerShardFailoverKeepsHitRate(t *testing.T) {
	cases := []struct {
		name     string
		shards   int
		replicas int
	}{
		{"single", 1, 1},
		{"sharded", 2, 2},
	}
	lastHit := make(map[string]float64)
	lastRouted := make(map[string]int)
	failures := make(map[string]int)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := RunRoutingComparison(RoutingConfig{
				NetworkSize: 100, Objects: 4, Ticks: 2, Window: 8 * time.Hour,
				Kinds:         []routing.Kind{routing.KindIndexer},
				IndexerShards: tc.shards, IndexerReplicas: tc.replicas,
				IndexerOutageAt: 2 * time.Hour,
				NoRepublish:     true, NoRefresh: true,
				BitswapTimeout: 30 * time.Second, QueryTimeout: 30 * time.Second,
				Seed: 55,
			})
			rp := res.Router(routing.KindIndexer)
			if rp == nil || len(rp.Ticks) != 2 {
				t.Fatalf("indexer tick series = %+v, want 2 ticks", rp)
			}
			last := rp.Ticks[len(rp.Ticks)-1]
			if math.IsNaN(last.IndexerHit) {
				t.Fatal("indexer hit rate not sampled")
			}
			lastHit[tc.name] = last.IndexerHit
			lastRouted[tc.name] = last.RoutedSessions
			failures[tc.name] = rp.Failures

			if tc.shards > 1 || tc.replicas > 1 {
				if res.Budget.Category(transport.CatGossip) == 0 {
					t.Error("sharded run produced no gossip traffic")
				}
				var sawShardHits bool
				for _, ps := range res.Phases {
					if len(ps.ShardHits) == tc.shards {
						sawShardHits = true
					}
					if ps.Offset > 2*time.Hour && !math.IsNaN(ps.ReplicaUp) && ps.ReplicaUp > 0.5 {
						t.Errorf("phase %s: replica availability %.2f despite one replica per shard down",
							ps.Phase, ps.ReplicaUp)
					}
				}
				if !sawShardHits {
					t.Error("no phase sample carried per-shard hit rates")
				}
			}
		})
	}
	if t.Failed() || len(lastHit) != len(cases) {
		t.Logf("skipping cross-case assertions: %v", lastHit)
		return
	}
	if lastHit["single"] != 0 {
		t.Errorf("single indexer hit rate = %.2f after its only indexer went down, want 0", lastHit["single"])
	}
	if lastHit["sharded"] < lastHit["single"]+0.5 {
		t.Errorf("sharded hit rate %.2f does not clear the single-indexer baseline %.2f",
			lastHit["sharded"], lastHit["single"])
	}
	if lastRouted["sharded"] == 0 {
		t.Error("no router-fed sessions after the outage: fail-over to replicas did not happen")
	}
	if lastRouted["single"] != 0 {
		t.Errorf("%d router-fed sessions with the only indexer down", lastRouted["single"])
	}
	if failures["sharded"] > failures["single"] {
		t.Errorf("sharded deployment failed more retrievals (%d) than the single indexer (%d)",
			failures["sharded"], failures["single"])
	}
}

// TestScenarioTickGCBoundsIndexerStore pins the GC hook: with expired
// records dropped at every scenario tick, a sustained publish stream
// leaves the ProviderStore holding only the records inside one TTL
// window instead of growing without bound.
func TestScenarioTickGCBoundsIndexerStore(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 30, Seed: 6,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	ttl := 2 * time.Hour
	fleet := tn.AddIndexerSet(77, 1, 1, ttl)
	ix := fleet.Replica(0, 0)

	sc := NewScenarioRunner(tn, ScenarioConfig{Window: 8 * time.Hour, Seed: 11})
	sc.ObserveIndexers(fleet)

	vantage := tn.AddVantageRouting("DE", 5, routing.KindIndexer, fleet.Set)
	const perTick, ticks = 20, 9
	published := 0
	for i := 0; i < ticks; i++ {
		i := i
		sc.Schedule(fmt.Sprintf("publish%d", i), time.Duration(i)*time.Hour,
			func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
				var out PhaseOutcome
				for j := 0; j < perTick; j++ {
					c := cid.Sum(multicodec.Raw, []byte(fmt.Sprintf("sustained %d/%d", i, j)))
					if _, err := vantage.Router().Provide(ctx, c); err != nil {
						out.Failures++
					}
					published++
					out.Ops++
				}
				return out
			})
	}
	sc.Run(context.Background())

	if published != perTick*ticks {
		t.Fatalf("published %d records, want %d", published, perTick*ticks)
	}
	// GC runs before each tick's publishes: at the final tick only the
	// records younger than the TTL survive — two past ticks plus the
	// tick's own batch.
	ceiling := 3 * perTick
	if got := ix.Len(); got > ceiling || got == 0 {
		t.Errorf("store holds %d records after the window, want (0, %d] — GC not bounding it", got, ceiling)
	}
	if ix.Len() >= published {
		t.Errorf("store grew to the full publish stream (%d records): GC never ran", ix.Len())
	}
}

// TestShardHitColumnPerFleetShape pins which fleet shapes report a
// per-shard hit rate: a lone indexer reports none (the time series
// prints "-"), every larger fleet one rate per shard, and the indexer
// hit rate is sampled whatever the shape.
func TestShardHitColumnPerFleetShape(t *testing.T) {
	cases := []struct {
		name             string
		shards, replicas int
	}{
		{"1x1", 1, 1},
		{"1x2", 1, 2},
		{"2x1", 2, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := RunRoutingComparison(RoutingConfig{
				NetworkSize: 60, Objects: 2, Ticks: 2, Window: 4 * time.Hour,
				Kinds:         []routing.Kind{routing.KindIndexer},
				IndexerShards: tc.shards, IndexerReplicas: tc.replicas,
				BitswapTimeout: 30 * time.Second, QueryTimeout: 30 * time.Second,
				Seed: 31,
			})
			if len(res.Phases) < 2 {
				t.Fatalf("phase samples = %d, want publish plus later ticks", len(res.Phases))
			}
			// The publish tick samples before any root is tracked, so it
			// has neither rate; every later tick has both.
			if first := res.Phases[0]; !math.IsNaN(first.IndexerHit) || first.ShardHits != nil {
				t.Errorf("phase %s: hit %v, per-shard %v before any root is tracked",
					first.Phase, first.IndexerHit, first.ShardHits)
			}
			for _, ps := range res.Phases[1:] {
				if math.IsNaN(ps.IndexerHit) {
					t.Errorf("phase %s: indexer hit rate not sampled", ps.Phase)
				}
				if tc.shards == 1 && tc.replicas == 1 {
					if ps.ShardHits != nil {
						t.Errorf("phase %s: lone indexer reported per-shard rates %v", ps.Phase, ps.ShardHits)
					}
				} else if len(ps.ShardHits) != tc.shards {
					t.Errorf("phase %s: per-shard rates = %v, want %d", ps.Phase, ps.ShardHits, tc.shards)
				}
			}
		})
	}
}

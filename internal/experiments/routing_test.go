package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/routing"
	"repro/internal/telemetry"
)

// TestRoutingComparison runs a small four-router comparison and checks
// the headline property the subsystem exists to demonstrate: the
// accelerated one-hop client resolves providers with measurably fewer
// routing messages than the baseline DHT walk, on the same network,
// under the same churn.
func TestRoutingComparison(t *testing.T) {
	cfg := RoutingConfig{NetworkSize: 180, Objects: 3, Seed: 42}
	if testing.Short() {
		// Keep the headline property exercised in -short (race) CI runs,
		// on a smaller churned network.
		cfg.NetworkSize = 100
		cfg.Objects = 2
	}
	res := RunRoutingComparison(cfg)
	if len(res.Routers) != 4 {
		t.Fatalf("measured %d routers, want 4", len(res.Routers))
	}
	for _, rp := range res.Routers {
		if rp.Publications == 0 || rp.Retrievals == 0 {
			t.Fatalf("%s: no operations ran", rp.Kind)
		}
		if rp.Failures > (rp.Publications+rp.Retrievals)/2 {
			t.Errorf("%s: %d failures out of %d ops", rp.Kind, rp.Failures, rp.Publications+rp.Retrievals)
		}
	}
	dht := res.Router(routing.KindDHT)
	accel := res.Router(routing.KindAccelerated)
	if dht.RetrMsgs.Len() == 0 || accel.RetrMsgs.Len() == 0 {
		t.Fatal("missing retrieval message samples")
	}
	if accel.RetrMsgs.Mean() >= dht.RetrMsgs.Mean() {
		t.Errorf("accelerated used %.1f routing msgs per retrieval vs dht %.1f, want fewer",
			accel.RetrMsgs.Mean(), dht.RetrMsgs.Mean())
	}
	// The accelerated publish skips the walk entirely.
	if accel.PubMsgs.Mean() >= dht.PubMsgs.Mean() {
		t.Errorf("accelerated used %.1f msgs per publish vs dht %.1f, want fewer",
			accel.PubMsgs.Mean(), dht.PubMsgs.Mean())
	}
	// Session routing: the one-hop routers answer with known providers,
	// send targeted WANT-HAVEs and skip the broadcast, so they must
	// retrieve with strictly fewer WANT-HAVE messages than the baseline
	// broadcast on the same testnet.
	for _, kind := range []routing.Kind{routing.KindAccelerated, routing.KindIndexer} {
		rp := res.Router(kind)
		if rp.RetrWantHaves.Len() == 0 {
			t.Fatalf("%s: no WANT-HAVE samples", kind)
		}
		if rp.RetrWantHaves.Mean() >= dht.RetrWantHaves.Mean() {
			t.Errorf("%s sent %.1f WANT-HAVEs per retrieval vs dht broadcast %.1f, want strictly fewer",
				kind, rp.RetrWantHaves.Mean(), dht.RetrWantHaves.Mean())
		}
		if rp.RoutedSessions == 0 {
			t.Errorf("%s: no routed sessions despite router-known providers", kind)
		}
	}
	if dht.RoutedSessions != 0 {
		t.Errorf("dht baseline reported %d routed sessions, want 0 (it broadcasts)", dht.RoutedSessions)
	}
	for _, render := range []string{res.Table(), res.Summary()} {
		if !strings.Contains(render, "dht") || !strings.Contains(render, "accelerated") {
			t.Errorf("render missing router rows:\n%s", render)
		}
	}
}

// TestSessionRoutingHeadlineGolden pins the routing comparison's
// headline figures exactly, on a 200-peer network under a churn
// timeline at amplitude 3 with the indexer as a sharded 2×2 replica
// fleet: the network-wide RPC budget, the batched republish cost per
// cycle of the DHT and the indexer, the DHT walk's streaming
// time-to-first-provider and the span-derived discovery tail. The run
// is seeded and event-driven, so each is a fixed number: one extra RPC
// anywhere in the scenario shows as a golden diff.
func TestSessionRoutingHeadlineGolden(t *testing.T) {
	res := RunRoutingComparison(RoutingConfig{
		NetworkSize: 200, Objects: 3, Ticks: 2, Window: 8 * time.Hour,
		ChurnAmplitude: 3, IndexerShards: 2, IndexerReplicas: 2,
		Seed: 11,
	})
	if res.SchedStalls != 0 {
		t.Fatalf("scheduler stalled %d times: an uninstrumented wait forfeits deterministic replay", res.SchedStalls)
	}
	dht, ix := res.Router(routing.KindDHT), res.Router(routing.KindIndexer)
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	fmt.Fprintf(&b, "Session routing under churn: %d peers, %d objects, %d ticks, window %s, amplitude %.1f, %dx%d indexer shards, seed %d\n",
		res.Cfg.NetworkSize, res.Cfg.Objects, res.Cfg.Ticks, res.Cfg.Window, res.Cfg.ChurnAmplitude,
		res.Cfg.IndexerShards, res.Cfg.IndexerReplicas, res.Cfg.Seed)
	fmt.Fprintf(&b, "rpc-total                         %d\n", res.Budget.Requests)
	fmt.Fprintf(&b, "dht-republish-rpcs-per-cycle      %s\n", num(dht.RepubRPCs.Mean()))
	fmt.Fprintf(&b, "indexer-republish-rpcs-per-cycle  %s\n", num(ix.RepubRPCs.Mean()))
	fmt.Fprintf(&b, "dht-time-to-first-provider-s      %s\n", num(dht.RetrTTFP.Percentile(50)))
	fmt.Fprintf(&b, "discover-p99-s                    %s\n", num(telemetry.DiscoverP99(res.Traces).Seconds()))
	goldenCompare(t, "session_routing.golden", b.String()+res.BudgetReport())
}

// TestRoutingTableGolden pins the routing comparison's rendered table
// and summary on a small four-router run: the per-router message
// columns (publication, retrieval and WANT-HAVE counts, republish RPCs
// per cycle) that no other golden holds, including the parallel
// router's race, whose losers' requests count toward its publication.
func TestRoutingTableGolden(t *testing.T) {
	res := RunRoutingComparison(RoutingConfig{
		NetworkSize: 120, Objects: 3, Ticks: 2, Window: 8 * time.Hour, ChurnAmplitude: 3, Seed: 7,
	})
	goldenCompare(t, "routing_table.golden", res.Table()+res.Summary())
}

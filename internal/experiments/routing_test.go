package experiments

import (
	"strings"
	"testing"

	"repro/internal/routing"
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

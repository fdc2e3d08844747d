package experiments

import (
	"testing"
	"time"

	"repro/internal/routing"
)

// eventDrivenConfig is the shared event-driven scenario the determinism
// and stress tests replay: a DHT-vs-indexer comparison under a churning
// 8 h window. The accelerated router (and its full-population refresh
// crawl) is deliberately absent so the run stays dominated by the
// discrete-event machinery under test, not by crawl fan-out.
func eventDrivenConfig(n, workers int) RoutingConfig {
	return RoutingConfig{
		NetworkSize:    n,
		Objects:        2,
		Ticks:          2,
		Window:         8 * time.Hour,
		ChurnAmplitude: 2,
		Kinds:          []routing.Kind{routing.KindDHT, routing.KindIndexer},
		NoRefresh:      true,
		Workers:        workers,
		Seed:           77,
	}
}

func TestEventDrivenScenarioSmoke(t *testing.T) {
	res := RunRoutingComparison(eventDrivenConfig(300, 1))
	if res.SchedStalls != 0 {
		t.Errorf("scheduler stalled %d times: an uninstrumented wait is on the workload path", res.SchedStalls)
	}
	if len(res.Phases) != 4 { // publish, republish, 2 retrieval ticks
		t.Fatalf("got %d phases, want 4", len(res.Phases))
	}
	if res.Budget.Requests == 0 {
		t.Fatal("no RPCs spent: the scenario did not run")
	}
	if res.SchedEvents == 0 {
		t.Fatal("no scheduler events dispatched: the run did not go through the event queue")
	}
}

// TestEventDrivenScenarioDeterminism20k replays the same seeded
// 20k-peer churn scenario twice on the lockstep scheduler and demands
// bit-for-bit identical results: the full phase time series including
// every per-phase Budget row, and the per-router latency/message
// aggregates. The rendered TimeSeries carries the span-derived and
// exact-RPC columns the stable goldens omit, so string equality here is
// the strongest cross-run check the engine offers. Zero stalls is part
// of the contract — a stall means a wait escaped instrumentation, and
// with it determinism.
func TestEventDrivenScenarioDeterminism20k(t *testing.T) {
	if testing.Short() {
		t.Skip("20k-peer scenario skipped in -short mode")
	}
	cfg := eventDrivenConfig(20000, 1)
	a := RunRoutingComparison(cfg)
	b := RunRoutingComparison(cfg)
	for _, res := range []*RoutingResults{a, b} {
		if res.SchedStalls != 0 {
			t.Fatalf("scheduler stalled %d times: an uninstrumented wait forfeits deterministic replay", res.SchedStalls)
		}
	}
	if as, bs := a.TimeSeries(), b.TimeSeries(); as != bs {
		t.Errorf("seeded runs diverged in the phase time series\nrun A:\n%s\nrun B:\n%s", as, bs)
	}
	if a.Budget.String() != b.Budget.String() {
		t.Errorf("seeded runs diverged in the cumulative budget: %v vs %v", a.Budget, b.Budget)
	}
	if at, bt := a.Table(), b.Table(); at != bt {
		t.Errorf("seeded runs diverged in the router comparison\nrun A:\n%s\nrun B:\n%s", at, bt)
	}
	if a.SchedEvents != b.SchedEvents {
		t.Errorf("seeded runs dispatched different event counts: %d vs %d", a.SchedEvents, b.SchedEvents)
	}
	if len(a.Phases) == 0 {
		t.Fatal("no phases ran")
	}
}

// TestEventDrivenScenarioRaceStress runs the scenario with a multi-slot
// worker pool, so same-instant events dispatch concurrently — the mode
// the race detector interrogates. Determinism is explicitly not
// asserted (concurrent dispatch trades tie-order stability away); the
// run must merely complete the schedule with the event machinery
// engaged and without stalling on uninstrumented waits.
func TestEventDrivenScenarioRaceStress(t *testing.T) {
	res := RunRoutingComparison(eventDrivenConfig(500, 8))
	if res.SchedStalls != 0 {
		t.Errorf("scheduler stalled %d times under concurrent dispatch", res.SchedStalls)
	}
	if len(res.Phases) != 4 {
		t.Fatalf("got %d phases, want 4", len(res.Phases))
	}
	if res.SchedEvents == 0 {
		t.Fatal("no scheduler events dispatched")
	}
}

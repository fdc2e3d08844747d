// Adversarial & lossy-network scenario pack: canned fault-injection
// runs of the routing comparison — a sustained packet-loss sweep, a
// regional partition that heals mid-window, and a Fig-7-style
// reachability cohort mix — each pinning how the routers' hit rates and
// RPC budgets degrade under imperfect conditions. Seeded runs replay
// bit-for-bit, so golden files pin the full time series.

package experiments

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/stats"
)

// LossSweepRates is the default sustained packet-loss sweep: a clean
// baseline tick, then 10/20/30 % per-transit loss.
var LossSweepRates = []float64{0, 0.10, 0.20, 0.30}

// faultScenarioDefaults are shared across the pack: a population small
// enough for tests, low behaviour-class noise, and 30 s timeouts (the
// goldens are pinned to them).
func faultScenarioDefaults(seed int64) RoutingConfig {
	return RoutingConfig{
		NetworkSize:    120,
		Objects:        3,
		K:              4,
		QueryTimeout:   30 * time.Second,
		BitswapTimeout: 30 * time.Second,
		Seed:           seed,
	}
}

// LossSweepScenario runs scenario (a): publish over clean links, then
// raise the network-wide loss rate tick by tick through LossSweepRates
// (0 → 30 %). Churn is all but disabled and the background phases are
// dropped, so the loss rate is the only lever moving between ticks and
// each router's hit-rate curve is a pure function of link loss.
func LossSweepScenario(seed int64) *RoutingResults {
	cfg := faultScenarioDefaults(seed)
	cfg.Window = 8 * time.Hour
	cfg.LossSweep = LossSweepRates
	cfg.ChurnAmplitude = 0.01
	// Enough retrievals per tick that the hit-rate curve reflects the
	// loss rate rather than per-object draw noise.
	cfg.Objects = 10
	cfg.NoRefresh = true
	cfg.NoRepublish = true
	return RunRoutingComparison(cfg)
}

// PartitionHealScenario runs scenario (b): the getter vantages' regions
// (UsWest1 plus the US server population) are partitioned off at 3 h
// and healed at 5 h of a 12 h window with six retrieval ticks — the
// tick at 4 h measures the split brain, the tick at 6 h (right after
// the mid-window snapshot refresh) measures recovery.
func PartitionHealScenario(seed int64) *RoutingResults {
	return RunRoutingComparison(partitionHealConfig(seed))
}

func partitionHealConfig(seed int64) RoutingConfig {
	cfg := faultScenarioDefaults(seed)
	cfg.Window = 12 * time.Hour
	cfg.Ticks = 6
	cfg.PartitionRegions = []geo.Region{geo.UsWest1, "US"}
	cfg.PartitionAt = 3 * time.Hour
	cfg.HealAt = 5 * time.Hour
	cfg.ChurnAmplitude = 0.01
	return cfg
}

// ReachabilityMixScenario runs scenario (c): the Fig-7 reachability
// cohort mix — roughly a third of the server population is NAT'd
// (online, originating traffic, refusing inbound dials) — under the
// paper's full churn model, so routers pay dial timeouts for
// unreachable providers and the accelerated router's stale-snapshot
// fallback has to carry retrievals.
func ReachabilityMixScenario(seed int64) *RoutingResults {
	cfg := faultScenarioDefaults(seed)
	cfg.Window = 12 * time.Hour
	cfg.Ticks = 4
	cfg.ChurnAmplitude = 1
	cfg.ReachabilityMix = true
	return RunRoutingComparison(cfg)
}

// Phase returns the first phase sample with the given name, or nil.
func (r *RoutingResults) Phase(name string) *PhaseSample {
	for i := range r.Phases {
		if r.Phases[i].Phase == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// DegradationTable renders the scenario pack's headline view: one row
// per retrieval tick with the fault state in force (loss rate,
// partition extent) and every router's hit rate at that tick — the
// degradation curves the goldens pin.
func (r *RoutingResults) DegradationTable() string {
	cols := []string{"Tick", "Loss", "Part"}
	for _, rp := range r.Routers {
		cols = append(cols, string(rp.Kind))
	}
	t := stats.NewTable(cols...)
	if len(r.Routers) > 0 {
		for i, tick := range r.Routers[0].Ticks {
			row := []interface{}{fmtOffset(tick.Offset), fmtHealth(tick.LossRate), tick.Partitioned}
			for _, rp := range r.Routers {
				if i < len(rp.Ticks) {
					row = append(row, fmtHealth(rp.Ticks[i].HitRate()))
				} else {
					row = append(row, "-")
				}
			}
			t.AddRow(row...)
		}
	}
	head := fmt.Sprintf("Degradation: per-tick hit rate, %d-peer network, window %s, %d dropped / %d retried RPCs total\n",
		r.Cfg.NetworkSize, r.Cfg.Window, r.Budget.Dropped, r.Budget.Retried)
	return head + t.String()
}

package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// replayCases renders every experiment that measures simulated latency,
// at the small sizes the shape tests use. Each run builds its own
// testnet and is the root goroutine of that testnet's scheduler, so
// what it renders is a function of its seed alone. simulate panics on
// a scheduler stall, and the routing comparison reports its own: zero
// stalls is part of every case.
var replayCases = []struct {
	name   string
	render func(t *testing.T) string
}{
	{"perf", func(t *testing.T) string {
		res := RunPerformance(smallPerf)
		return strings.Join([]string{res.Table1(), res.Table4(), res.Fig9(10), res.Fig10(10), res.Summary()}, "\n")
	}},
	{"gateway", func(t *testing.T) string {
		res := RunGateway(smallGateway)
		return strings.Join([]string{res.Table5(), res.Fig4b(), res.Fig6(), res.Fig11a(10), res.Fig11b()}, "\n")
	}},
	{"deployment", func(t *testing.T) string {
		res := RunDeployment(DeployConfig{PopulationSize: 8000, CrawlNetworkSize: 250, CrawlEpochs: 4, Seed: 7})
		return strings.Join([]string{res.Fig4a(), res.Fig5(), res.Table2(), res.Table3(),
			res.Fig7a(), res.Fig7b(), res.Fig7c(), res.Fig7d(), res.Fig8(10)}, "\n")
	}},
	{"ablation-replication", func(t *testing.T) string {
		cfg := AblationConfig{NetworkSize: 200, Iterations: 4, Seed: 23}
		return RenderAblations(RunReplicationSweep(cfg, []int{4, 20}, 0.5), nil, nil, nil, nil)
	}},
	{"ablation-alpha", func(t *testing.T) string {
		cfg := AblationConfig{NetworkSize: 200, Iterations: 3, Seed: 23}
		return RenderAblations(nil, RunAlphaSweep(cfg, []int{1, 3}), nil, nil, nil)
	}},
	{"ablation-parallel-discovery", func(t *testing.T) string {
		cfg := AblationConfig{NetworkSize: 200, Iterations: 2, Seed: 23}
		return RenderAblations(nil, nil, RunParallelDiscovery(cfg), nil, nil)
	}},
	{"ablation-client-server", func(t *testing.T) string {
		cfg := AblationConfig{NetworkSize: 200, Iterations: 3, Seed: 23}
		return RenderAblations(nil, nil, nil, RunClientServerSplit(cfg), nil)
	}},
	{"ablation-gateway-cache", func(t *testing.T) string {
		return RenderAblations(nil, nil, nil, nil, RunGatewayCacheSweep(AblationConfig{Seed: 23}, []int64{2 << 20}))
	}},
	{"routing", func(t *testing.T) string {
		res := RunRoutingComparison(RoutingConfig{NetworkSize: 180, Objects: 3, Seed: 42})
		if res.SchedStalls != 0 {
			t.Errorf("scheduler stalled %d times", res.SchedStalls)
		}
		return strings.Join([]string{res.Table(), res.TimeSeries(), res.BudgetReport(), res.Summary(),
			fmt.Sprint(res.SchedEvents, " events")}, "\n")
	}},
}

// TestExperimentsReplayUnderScheduler: two runs of the same seed give
// the same bytes, for every table and figure of every ported
// experiment. The first two rows of the paper ledger — Tables 1 and 4
// with the §6.1–6.2 headline summary, and Table 5 — are pinned as
// goldens beside the routing ones, so a drift in a published latency is
// a reviewable diff.
func TestExperimentsReplayUnderScheduler(t *testing.T) {
	for _, tc := range replayCases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "ablation-gateway-cache" {
				t.Skip("the cache sweep's catalog is slow to hash under -short -race")
			}
			a, b := tc.render(t), tc.render(t)
			if a != b {
				t.Errorf("two runs of one seed rendered different bytes\nrun A:\n%s\nrun B:\n%s", a, b)
			}
			if len(a) < 100 {
				t.Errorf("render suspiciously short:\n%s", a)
			}
		})
	}
}

// TestReplayCasesGolden pins each replay case's render as
// testdata/replay_<case>.golden, so every table and figure the
// experiments print — Tables 2 and 3 and Figures 4a, 5, 6, 7a–7d, 8, 9,
// 10 and 11a among them — moves only as a reviewed diff.
func TestReplayCasesGolden(t *testing.T) {
	for _, tc := range replayCases {
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.name == "ablation-gateway-cache" {
				t.Skip("the cache sweep's catalog is slow to hash under -short -race")
			}
			goldenCompare(t, "replay_"+tc.name+".golden", tc.render(t))
		})
	}
}

// TestPerfTable4Golden pins Table 1, Table 4 and the headline summary
// of the small §4.3 run.
func TestPerfTable4Golden(t *testing.T) {
	res := perfResults(t)
	goldenCompare(t, "perf_table4.golden", res.Table1()+"\n"+res.Table4()+"\n"+res.Summary())
}

// TestGatewayTable5Golden pins Table 5 of the small §6.3 run.
func TestGatewayTable5Golden(t *testing.T) {
	goldenCompare(t, "gateway_table5.golden", gatewayResults(t).Table5())
}

// TestGatewayFigsGolden pins Figure 4b's diurnal request series and
// Figure 11b's cached share per bin of the small §6.3 run.
func TestGatewayFigsGolden(t *testing.T) {
	res := gatewayResults(t)
	goldenCompare(t, "gateway_figs.golden", res.Fig4b()+"\n"+res.Fig11b())
}

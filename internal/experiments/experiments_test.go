package experiments

import (
	"strings"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/stats"
)

// The small §4.3 and §6.3 configurations the shape, golden and replay
// tests all run.
var (
	smallPerf    = PerfConfig{NetworkSize: 300, IterationsPer: 2, Seed: 42}
	smallGateway = GatewayConfig{NetworkSize: 40, Objects: 120, Requests: 1200, TraceOnly: 30000, Seed: 17}
)

// small perf run shared across assertions.
var perfOnce *PerfResults

func perfResults(t *testing.T) *PerfResults {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping the full performance experiment in -short mode")
	}
	if perfOnce == nil {
		perfOnce = RunPerformance(smallPerf)
	}
	return perfOnce
}

func TestPerformanceShapes(t *testing.T) {
	res := perfResults(t)
	if res.Failures > res.Successes/10 {
		t.Fatalf("too many failures: %d ok %d failed", res.Successes, res.Failures)
	}
	pub := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.PubOverall })
	retr := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.RetrOverall })
	// Publication is an order of magnitude slower than retrieval
	// (paper: 33.8s vs 2.90s medians).
	if pub.Median() < 3*retr.Median() {
		t.Errorf("publication median %.1fs should dwarf retrieval %.1fs", pub.Median(), retr.Median())
	}
	// Retrieval medians are seconds, not minutes (§6.2 headline).
	if retr.Median() < 1 || retr.Median() > 15 {
		t.Errorf("retrieval median %.2fs out of plausible band", retr.Median())
	}
	// The Bitswap timeout sets a 1s floor on retrievals.
	if retr.Min() < 1 {
		t.Errorf("retrieval min %.2fs below the 1s Bitswap floor", retr.Min())
	}
	// Stretch must exceed 1 and drop when the Bitswap timeout is removed.
	st := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.Stretch })
	stNB := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.StretchNoBitswap })
	if st.Median() <= 1.2 {
		t.Errorf("stretch median %.2f too low", st.Median())
	}
	if stNB.Median() >= st.Median() {
		t.Errorf("stretch without Bitswap (%.2f) should be below stretch (%.2f)", stNB.Median(), st.Median())
	}
}

func TestPerformanceRenderers(t *testing.T) {
	res := perfResults(t)
	for _, out := range []string{res.Table1(), res.Table4(), res.Fig9(10), res.Fig10(10), res.Summary()} {
		if len(out) < 50 {
			t.Errorf("renderer output too short:\n%s", out)
		}
	}
	if !strings.Contains(res.Table1(), "Total") {
		t.Error("Table1 missing Total row")
	}
	if !strings.Contains(res.Fig9(10), "fig9a") || !strings.Contains(res.Fig9(10), "fig9f") {
		t.Error("Fig9 missing panels")
	}
}

func TestDeploymentShapes(t *testing.T) {
	res := RunDeployment(DeployConfig{
		PopulationSize: 8000, CrawlNetworkSize: 250, CrawlEpochs: 4, Seed: 7,
	})
	if len(res.Epochs) != 4 {
		t.Fatalf("epochs = %d", len(res.Epochs))
	}
	for _, e := range res.Epochs {
		if e.Total == 0 || e.Dialable == 0 {
			t.Errorf("epoch %v: total=%d dialable=%d", e.Time, e.Total, e.Dialable)
		}
		if e.Dialable+e.Undialable != e.Total {
			t.Error("dialable + undialable != total")
		}
		// A sizeable undialable fraction, as in Fig 4a.
		if float64(e.Undialable)/float64(e.Total) < 0.05 {
			t.Errorf("undialable fraction suspiciously low: %d/%d", e.Undialable, e.Total)
		}
	}
	for _, out := range []string{res.Fig4a(), res.Fig5(), res.Table2(), res.Table3(),
		res.Fig7a(), res.Fig7b(), res.Fig7c(), res.Fig7d(), res.Fig8(10)} {
		if len(out) < 40 {
			t.Errorf("deployment renderer too short:\n%s", out)
		}
	}
	// Fig 5 must be headed by the US and CN.
	fig5 := res.Fig5()
	usIdx, cnIdx := strings.Index(fig5, "US"), strings.Index(fig5, "CN")
	if usIdx < 0 || cnIdx < 0 || usIdx > cnIdx {
		t.Errorf("Fig5 should rank US before CN:\n%s", fig5)
	}
	if !strings.Contains(res.Table2(), "CHINANET") {
		t.Errorf("Table2 should name CHINANET first:\n%s", res.Table2())
	}
}

// small gateway run shared across assertions.
var gatewayOnce *GatewayResults

func gatewayResults(t *testing.T) *GatewayResults {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping the gateway experiment in -short mode")
	}
	if gatewayOnce == nil {
		gatewayOnce = RunGateway(smallGateway)
	}
	return gatewayOnce
}

func TestGatewayShapes(t *testing.T) {
	res := gatewayResults(t)
	var total int
	for _, s := range res.Tiers {
		total += s.Requests
	}
	if total != 1200 {
		t.Fatalf("logged requests = %d", total)
	}
	nginx := res.Tiers[gateway.TierNginx]
	node := res.Tiers[gateway.TierNodeStore]
	network := res.Tiers[gateway.TierNetwork]
	// Tier ordering of Table 5: the caches dominate; non-cached is the
	// smallest slice.
	if nginx.Requests < network.Requests {
		t.Errorf("nginx (%d) should serve more requests than the network (%d)", nginx.Requests, network.Requests)
	}
	combined := float64(nginx.Requests+node.Requests) / float64(total)
	if combined < 0.6 {
		t.Errorf("combined cache hit rate %.2f, paper reports >0.8", combined)
	}
	// Latency ordering: nginx 0 < node store 8ms < network seconds.
	if nginx.MedianLatency != 0 {
		t.Error("nginx median latency should be 0")
	}
	if node.MedianLatency != gateway.NodeStoreLatency {
		t.Errorf("node store median = %v", node.MedianLatency)
	}
	if network.Requests > 0 && network.MedianLatency < 500*time.Millisecond {
		t.Errorf("network median = %v, want seconds", network.MedianLatency)
	}
	for _, out := range []string{res.Table5(), res.Fig4b(), res.Fig6(), res.Fig11a(10), res.Fig11b()} {
		if len(out) < 40 {
			t.Errorf("gateway renderer too short:\n%s", out)
		}
	}
}

func TestGatewayCacheSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the gateway cache sweep in -short mode")
	}
	pts := RunGatewayCacheSweep(AblationConfig{Seed: 23}, []int64{2 << 20, 32 << 20})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].NginxHit < pts[0].NginxHit {
		t.Errorf("bigger cache should not hit less: %.2f -> %.2f", pts[0].NginxHit, pts[1].NginxHit)
	}
}

func TestClientServerSplitAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the churned client/server ablation in -short mode")
	}
	pts := RunClientServerSplit(AblationConfig{NetworkSize: 200, Iterations: 3, Seed: 23})
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	var with, without ClientServerPoint
	for _, p := range pts {
		if p.SplitEnabled {
			with = p
		} else {
			without = p
		}
	}
	// Polluted routing tables slow publications (§6.4's claim).
	if without.PubMedian <= with.PubMedian {
		t.Errorf("pre-v0.5 world should be slower: with=%v without=%v", with.PubMedian, without.PubMedian)
	}
}

func TestReplicationSweep(t *testing.T) {
	pts := RunReplicationSweep(AblationConfig{NetworkSize: 200, Iterations: 4, Seed: 23}, []int{4, 20}, 0.5)
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[1].StoreSuccesses <= pts[0].StoreSuccesses {
		t.Errorf("k=20 should store more records than k=4: %.1f vs %.1f", pts[1].StoreSuccesses, pts[0].StoreSuccesses)
	}
	if pts[1].SurvivalRate < pts[0].SurvivalRate {
		t.Errorf("k=20 survival (%.2f) should be >= k=4 (%.2f)", pts[1].SurvivalRate, pts[0].SurvivalRate)
	}
	out := RenderAblations(pts, nil, nil, nil, nil)
	if !strings.Contains(out, "replication factor") {
		t.Error("RenderAblations missing replication table")
	}
}

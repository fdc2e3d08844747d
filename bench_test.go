// Package repro's root benchmark harness: one testing.B benchmark per
// table and figure of the paper's evaluation (see DESIGN.md §3), plus
// the DESIGN.md §5 ablations and micro-benchmarks of the hot data
// structures. Benchmarks report the headline simulated metric of each
// experiment via b.ReportMetric so a -bench run doubles as a shape
// check against the paper.
package repro

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/geo"
	"repro/internal/gwload"
	"repro/internal/kbucket"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/multihash"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/ipfs"
)

// benchPerf runs a small §4.3 experiment; reused by the Table 1/4 and
// Fig 9/10 benchmarks with distinct reporting.
func benchPerf(b *testing.B, report func(*testing.B, *experiments.PerfResults)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := experiments.RunPerformance(experiments.PerfConfig{
			NetworkSize: 250, IterationsPer: 1, Seed: 42,
		})
		report(b, res)
	}
}

func combinedSample(res *experiments.PerfResults, pick func(*experiments.RegionPerf) *stats.Sample) *stats.Sample {
	all := stats.NewSample()
	for _, rp := range res.Regions {
		for _, v := range pick(rp).Values() {
			all.Add(v)
		}
	}
	return all
}

// BenchmarkTable1PublishRetrieve regenerates Table 1 (operation counts).
func BenchmarkTable1PublishRetrieve(b *testing.B) {
	benchPerf(b, func(b *testing.B, res *experiments.PerfResults) {
		b.ReportMetric(float64(res.Successes), "ops")
		if res.Table1() == "" {
			b.Fatal("empty table")
		}
	})
}

// BenchmarkTable4LatencyPercentiles regenerates Table 4.
func BenchmarkTable4LatencyPercentiles(b *testing.B) {
	benchPerf(b, func(b *testing.B, res *experiments.PerfResults) {
		pub := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.PubOverall })
		retr := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.RetrOverall })
		b.ReportMetric(pub.Percentile(50), "pub-p50-s")
		b.ReportMetric(retr.Percentile(50), "retr-p50-s")
	})
}

// BenchmarkFig9Publication regenerates Fig 9a–c (publication CDFs).
func BenchmarkFig9Publication(b *testing.B) {
	benchPerf(b, func(b *testing.B, res *experiments.PerfResults) {
		walk := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.PubWalk })
		batch := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.PubBatch })
		b.ReportMetric(walk.Percentile(50), "walk-p50-s")
		b.ReportMetric(batch.Percentile(50), "batch-p50-s")
	})
}

// BenchmarkFig9Retrieval regenerates Fig 9d–f (retrieval CDFs).
func BenchmarkFig9Retrieval(b *testing.B) {
	benchPerf(b, func(b *testing.B, res *experiments.PerfResults) {
		walks := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.RetrWalks })
		fetch := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.RetrFetch })
		b.ReportMetric(walks.Percentile(50), "walks-p50-s")
		b.ReportMetric(fetch.Percentile(50), "fetch-p50-s")
	})
}

// BenchmarkFig10Stretch regenerates Fig 10 (stretch CDFs).
func BenchmarkFig10Stretch(b *testing.B) {
	benchPerf(b, func(b *testing.B, res *experiments.PerfResults) {
		st := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.Stretch })
		stNB := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.StretchNoBitswap })
		b.ReportMetric(st.Percentile(50), "stretch-p50")
		b.ReportMetric(stNB.Percentile(50), "stretch-nobitswap-p50")
	})
}

// benchDeploy runs a small §5 analysis.
func benchDeploy(b *testing.B, report func(*testing.B, *experiments.DeployResults)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := experiments.RunDeployment(experiments.DeployConfig{
			PopulationSize: 6000, CrawlNetworkSize: 200, CrawlEpochs: 3,
			Seed: 7,
		})
		report(b, res)
	}
}

// BenchmarkTable2ASConcentration regenerates Table 2.
func BenchmarkTable2ASConcentration(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		b.ReportMetric(100*res.Pop.AS.TopShare(10), "top10-AS-%")
		if res.Table2() == "" {
			b.Fatal("empty table")
		}
	})
}

// BenchmarkTable3CloudShare regenerates Table 3.
func BenchmarkTable3CloudShare(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		b.ReportMetric(100*res.Pop.CloudShare(), "cloud-%")
	})
}

// BenchmarkFig4aCrawlTimeSeries regenerates Fig 4a.
func BenchmarkFig4aCrawlTimeSeries(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		last := res.Epochs[len(res.Epochs)-1]
		b.ReportMetric(float64(last.Dialable), "dialable")
		b.ReportMetric(float64(last.Undialable), "undialable")
	})
}

// BenchmarkFig5PeerGeo regenerates Fig 5.
func BenchmarkFig5PeerGeo(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		counts := res.Pop.CountryCounts()
		b.ReportMetric(100*float64(counts["US"])/float64(len(res.Pop.Peers)), "US-%")
	})
}

// BenchmarkFig7aReliable regenerates Fig 7a.
func BenchmarkFig7aReliable(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		reliable := 0
		for _, p := range res.Pop.Peers {
			if p.Reliable {
				reliable++
			}
		}
		b.ReportMetric(100*float64(reliable)/float64(len(res.Pop.Peers)), "reliable-%")
	})
}

// BenchmarkFig7bUnreachable regenerates Fig 7b.
func BenchmarkFig7bUnreachable(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		unreachable := 0
		for _, p := range res.Pop.Peers {
			if !p.Dialable {
				unreachable++
			}
		}
		b.ReportMetric(100*float64(unreachable)/float64(len(res.Pop.Peers)), "unreachable-%")
	})
}

// BenchmarkFig7cPeerIDClustering regenerates Fig 7c.
func BenchmarkFig7cPeerIDClustering(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		perIP := res.Pop.PeersPerIP()
		singles := 0
		for _, n := range perIP {
			if n == 1 {
				singles++
			}
		}
		b.ReportMetric(100*float64(singles)/float64(len(perIP)), "single-peer-IPs-%")
	})
}

// BenchmarkFig7dASDistribution regenerates Fig 7d.
func BenchmarkFig7dASDistribution(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		byRank := res.Pop.IPsPerASRank()
		b.ReportMetric(float64(byRank[1]), "rank1-IPs")
	})
}

// BenchmarkFig8ChurnCDF regenerates Fig 8.
func BenchmarkFig8ChurnCDF(b *testing.B) {
	benchDeploy(b, func(b *testing.B, res *experiments.DeployResults) {
		obs := res.Timeline.SessionObservations()
		s := stats.NewSample()
		for _, o := range obs {
			s.Add(o.Uptime.Hours())
		}
		b.ReportMetric(100*s.FractionBelow(8), "under-8h-%")
	})
}

// benchGateway runs a small §6.3 experiment.
func benchGateway(b *testing.B, report func(*testing.B, *experiments.GatewayResults)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res := experiments.RunGateway(experiments.GatewayConfig{
			NetworkSize: 40, Objects: 120, Requests: 1200, TraceOnly: 30000,
			Seed: 17,
		})
		report(b, res)
	}
}

// BenchmarkTable5GatewayTiers regenerates Table 5.
func BenchmarkTable5GatewayTiers(b *testing.B) {
	benchGateway(b, func(b *testing.B, res *experiments.GatewayResults) {
		var total, nginx, node int
		for tier, s := range res.Tiers {
			total += s.Requests
			switch tier {
			case gateway.TierNginx:
				nginx = s.Requests
			case gateway.TierNodeStore:
				node = s.Requests
			}
		}
		b.ReportMetric(100*float64(nginx)/float64(total), "nginx-hit-%")
		b.ReportMetric(100*float64(nginx+node)/float64(total), "combined-hit-%")
	})
}

// BenchmarkFig4bDiurnal regenerates Fig 4b.
func BenchmarkFig4bDiurnal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cat := gwload.NewCatalog(gwload.CatalogConfig{NumObjects: 200, Seed: 17})
		reqs := gwload.GenerateTrace(cat, gwload.TraceConfig{NumRequests: 50000, Seed: 18})
		var byHour [24]int
		for _, r := range reqs {
			byHour[r.Time.UTC().Hour()]++
		}
		min, max := byHour[0], byHour[0]
		for _, c := range byHour {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		b.ReportMetric(float64(max)/float64(min), "peak-to-trough")
	}
}

// BenchmarkFig6UserGeo regenerates Fig 6.
func BenchmarkFig6UserGeo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cat := gwload.NewCatalog(gwload.CatalogConfig{NumObjects: 200, Seed: 17})
		reqs := gwload.GenerateTrace(cat, gwload.TraceConfig{NumRequests: 50000, Seed: 19})
		us := 0
		for _, r := range reqs {
			if r.Country == "US" {
				us++
			}
		}
		b.ReportMetric(100*float64(us)/float64(len(reqs)), "US-%")
	}
}

// BenchmarkFig11GatewayDistributions regenerates Fig 11a.
func BenchmarkFig11GatewayDistributions(b *testing.B) {
	benchGateway(b, func(b *testing.B, res *experiments.GatewayResults) {
		lat := stats.NewSample()
		for _, e := range res.Log {
			if !e.Err() {
				lat.Add(e.Latency.Seconds())
			}
		}
		b.ReportMetric(100*lat.FractionBelow(0.25), "under-250ms-%")
	})
}

// BenchmarkFig11CacheTimeline regenerates Fig 11b.
func BenchmarkFig11CacheTimeline(b *testing.B) {
	benchGateway(b, func(b *testing.B, res *experiments.GatewayResults) {
		if res.Fig11b() == "" {
			b.Fatal("empty series")
		}
	})
}

// --- DESIGN.md §5 ablations ---

// BenchmarkAblationReplication sweeps the replication factor k.
func BenchmarkAblationReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RunReplicationSweep(
			experiments.AblationConfig{NetworkSize: 180, Iterations: 3, Seed: 23},
			[]int{5, 20}, 0.5)
		b.ReportMetric(pts[len(pts)-1].SurvivalRate*100, "k20-survival-%")
	}
}

// BenchmarkAblationAlpha sweeps lookup concurrency.
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RunAlphaSweep(
			experiments.AblationConfig{NetworkSize: 200, Iterations: 3, Seed: 23},
			[]int{1, 3})
		b.ReportMetric(pts[0].RetrMedian.Seconds(), "alpha1-retr-s")
		b.ReportMetric(pts[1].RetrMedian.Seconds(), "alpha3-retr-s")
	}
}

// BenchmarkAblationParallelDiscovery compares serial and parallel
// Bitswap/DHT discovery (§6.2).
func BenchmarkAblationParallelDiscovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RunParallelDiscovery(
			experiments.AblationConfig{NetworkSize: 200, Iterations: 2, Seed: 23})
		b.ReportMetric(pts[0].RetrMedian.Seconds(), "serial-retr-s")
		b.ReportMetric(pts[1].RetrMedian.Seconds(), "parallel-retr-s")
	}
}

// BenchmarkAblationClientServerSplit compares the post-v0.5 DHT
// client/server split against polluted routing tables (§6.4).
func BenchmarkAblationClientServerSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RunClientServerSplit(
			experiments.AblationConfig{NetworkSize: 180, Iterations: 3, Seed: 23})
		for _, p := range pts {
			if p.SplitEnabled {
				b.ReportMetric(p.PubMedian.Seconds(), "split-pub-s")
			} else {
				b.ReportMetric(p.PubMedian.Seconds(), "nosplit-pub-s")
			}
		}
	}
}

// BenchmarkAblationGatewayCacheSize sweeps the nginx cache size.
func BenchmarkAblationGatewayCacheSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RunGatewayCacheSweep(
			experiments.AblationConfig{Seed: 23},
			[]int64{4 << 20, 32 << 20})
		b.ReportMetric(100*pts[len(pts)-1].NginxHit, "bigcache-hit-%")
	}
}

// --- content-routing subsystem ---

// BenchmarkRoutingComparison races the four content routers on one
// simulated network under the churn timeline, reporting per-retrieval
// routing message counts and latency for the baseline walk vs the
// accelerated one-hop client.
func BenchmarkRoutingComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRoutingComparison(experiments.RoutingConfig{
			NetworkSize: 200, Objects: 3, Ticks: 2, Window: 8 * time.Hour, Seed: 42,
		})
		dht := res.Router(routing.KindDHT)
		accel := res.Router(routing.KindAccelerated)
		b.ReportMetric(dht.RetrMsgs.Mean(), "dht-retr-msgs")
		b.ReportMetric(accel.RetrMsgs.Mean(), "accel-retr-msgs")
		b.ReportMetric(dht.RetrLatency.Percentile(50), "dht-retr-p50-s")
		b.ReportMetric(accel.RetrLatency.Percentile(50), "accel-retr-p50-s")
		b.ReportMetric(dht.RetrWantHaves.Mean(), "dht-want-haves")
		b.ReportMetric(accel.RetrWantHaves.Mean(), "accel-want-haves")
		b.ReportMetric(dht.RetrTTFP.Percentile(50), "dht-time-to-first-provider-s")
		b.ReportMetric(accel.RetrTTFP.Percentile(50), "accel-time-to-first-provider-s")
	}
}

// BenchmarkSessionRoutingUnderChurn compares broadcast-vs-routed
// Bitswap sessions under a heavier churn timeline: WANT-HAVE fan-out,
// how many sessions the router fed directly, the mid-session fail-overs
// that replaced churned providers, and the network-wide RPC budget by
// category (so background republish/refresh traffic lands in the
// uploaded BENCH_PR.json next to the per-lookup metrics). The indexer
// runs as a sharded 2×2 replica fleet, so the budget carries its
// gossip traffic, and a second small run with each shard's primary
// taken down mid-window reports the indexer-loss fail-over cost.
func BenchmarkSessionRoutingUnderChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunRoutingComparison(experiments.RoutingConfig{
			NetworkSize: 200, Objects: 3, Ticks: 2, Window: 8 * time.Hour,
			ChurnAmplitude: 3, IndexerShards: 2, IndexerReplicas: 2,
			Seed: 11,
		})
		dht := res.Router(routing.KindDHT)
		accel := res.Router(routing.KindAccelerated)
		b.ReportMetric(dht.RetrWantHaves.Mean(), "dht-want-haves")
		b.ReportMetric(accel.RetrWantHaves.Mean(), "accel-want-haves")
		b.ReportMetric(float64(accel.RoutedSessions), "routed-sessions")
		b.ReportMetric(accel.FallbackRate(), "accel-fallback-rate")
		b.ReportMetric(float64(dht.Failures+accel.Failures), "failures")
		// Batched republish: RPCs per cycle stay bounded by the distinct
		// target-peer count instead of CIDs x (walk + store fan-out).
		b.ReportMetric(dht.RepubRPCs.Mean(), "dht-republish-rpcs-per-cycle")
		ix := res.Router(routing.KindIndexer)
		b.ReportMetric(ix.RepubRPCs.Mean(), "indexer-republish-rpcs-per-cycle")
		// Streaming discovery: the walk baseline's time-to-first-provider
		// vs the full-lookup wait retrieval used to block on.
		b.ReportMetric(dht.RetrTTFP.Percentile(50), "dht-time-to-first-provider-s")
		b.ReportMetric(dht.RetrLookupFull.Percentile(50), "dht-blocking-lookup-s")
		// Span-derived discovery tail across every router's traced
		// retrievals — the delay-decomposition headline the telemetry
		// subsystem adds, gated by benchdiff against the baseline.
		b.ReportMetric(telemetry.DiscoverP99(res.Traces).Seconds(), "discover-p99-s")
		b.ReportMetric(float64(res.Budget.Requests), "rpc-total")
		b.ReportMetric(float64(res.Budget.Category(transport.CatLookup)), "rpc-lookup")
		b.ReportMetric(float64(res.Budget.Category(transport.CatPublish)), "rpc-publish")
		b.ReportMetric(float64(res.Budget.Category(transport.CatRepublish)), "rpc-republish")
		b.ReportMetric(float64(res.Budget.Category(transport.CatRefresh)), "rpc-refresh")
		b.ReportMetric(float64(res.Budget.Category(transport.CatWant)), "rpc-want")
		b.ReportMetric(float64(res.Budget.Category(transport.CatGossip)), "rpc-gossip")

		// Indexer-loss fail-over cost: same churn amplitude, each shard's
		// primary replica offline from mid-window — the replica groups
		// must keep the hit rate up, at the price of one extra (failed)
		// hop per lookup that lands on a dead primary.
		fo := experiments.RunRoutingComparison(experiments.RoutingConfig{
			NetworkSize: 150, Objects: 3, Ticks: 2, Window: 8 * time.Hour,
			ChurnAmplitude: 3, IndexerShards: 2, IndexerReplicas: 2,
			IndexerOutageAt: 2 * time.Hour,
			Kinds:           []routing.Kind{routing.KindIndexer},
			NoRepublish:     true, NoRefresh: true,
			Seed: 11,
		})
		foIx := fo.Router(routing.KindIndexer)
		foLast := foIx.Ticks[len(foIx.Ticks)-1]
		b.ReportMetric(foLast.IndexerHit, "ix-hit-after-outage")
		b.ReportMetric(foIx.RetrMsgs.Mean(), "ix-failover-retr-msgs")
		b.ReportMetric(float64(foIx.Failures), "ix-failover-failures")
	}
}

// BenchmarkScenario20kChurnEventDriven replays a paper-scale churn
// scenario — 20k DHT servers, an 8 h simulated window, per-peer session
// transitions — on the discrete-event scheduler, and reports the wall
// clock one scenario costs as scenario-wall-ms: the headline metric
// benchdiff gates so the engine cannot quietly regress back toward
// a cost per tick. scenario-setup-ms and scenario-run-ms (ungated) split
// it into building the network — 20 000 ed25519 identities, most of the
// total — and the scheduler run. Stalls must report zero (every wait on the
// workload path instrumented) for the run to be trustworthy; -short
// shrinks the population for quick local sweeps.
func BenchmarkScenario20kChurnEventDriven(b *testing.B) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < b.N; i++ {
		start := time.Now()
		res := experiments.RunRoutingComparison(experiments.RoutingConfig{
			NetworkSize: n, Objects: 2, Ticks: 2, Window: 8 * time.Hour,
			ChurnAmplitude: 2,
			Kinds:          []routing.Kind{routing.KindDHT, routing.KindIndexer},
			NoRefresh:      true,
			Seed:           77,
		})
		b.ReportMetric(float64(time.Since(start).Milliseconds()), "scenario-wall-ms")
		b.ReportMetric(float64(res.SetupWall.Milliseconds()), "scenario-setup-ms")
		b.ReportMetric(float64(res.RunWall.Milliseconds()), "scenario-run-ms")
		b.ReportMetric(float64(res.SchedEvents), "sched-events")
		b.ReportMetric(float64(res.SchedStalls), "sched-stalls")
		b.ReportMetric(float64(res.Budget.Requests), "rpc-total-20k")
	}
}

// BenchmarkLossDegradation replays the adversarial loss sweep (four
// retrieval ticks raising the per-transit loss rate 0% -> 30%) on the
// event-driven scheduler and reports the hit rate at the sweep's
// endpoints, averaged across the four routers, plus the RPC budget's
// drop/retry totals. loss30-hit-rate is the degradation headline
// benchdiff gates (higher-is-better): a routing change that gets worse
// at absorbing loss fails the gate even if the lossless numbers hold.
func BenchmarkLossDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.LossSweepScenario(42)
		var first, last, n float64
		for _, rp := range res.Routers {
			if len(rp.Ticks) == 0 {
				continue
			}
			first += rp.Ticks[0].HitRate()
			last += rp.Ticks[len(rp.Ticks)-1].HitRate()
			n++
		}
		b.ReportMetric(first/n, "loss0-hit-rate")
		b.ReportMetric(last/n, "loss30-hit-rate")
		b.ReportMetric(float64(res.Budget.Dropped), "rpc-dropped-total")
		b.ReportMetric(float64(res.Budget.Retried), "rpc-retried-total")
		b.ReportMetric(float64(res.SchedStalls), "sched-stalls-loss")
	}
}

// BenchmarkGatewayFleetFlashCrowd replays the viral-CID flash crowd
// (one CID at 100x the steady request rate) through the gateway fleet
// — consistent-hash placement, shared cache tier, admission control —
// on the event-driven scheduler, with the origin host on a pack-engine
// blockstore. Three headline metrics are benchdiff-gated:
// fleet-p99-ttfb-ms is the steady phase's p99 time-to-first-byte (the
// steady phase exercises the full retrieval cascade; the viral phase's
// p99 is cache-dominated and would gate nothing), fleet-cache-hit-rate
// is the whole-run fleet hit rate (higher-is-better), and
// fleet-origin-rpc-amp is the viral phase's origin-RPC rate as a
// multiple of steady — the sub-linear amplification the fleet exists
// to deliver.
func BenchmarkGatewayFleetFlashCrowd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunFleetScenario(experiments.FleetScenarioConfig{
			OriginDir: b.TempDir(),
		})
		if res.SchedStalls != 0 {
			b.Fatalf("scheduler stalled %d times; run untrustworthy", res.SchedStalls)
		}
		steady := res.Phases[0]
		b.ReportMetric(steady.TTFB.Percentile(99)*1000, "fleet-p99-ttfb-ms")
		b.ReportMetric(res.Stats.CacheHitRate(), "fleet-cache-hit-rate")
		b.ReportMetric(res.OriginRPCAmp, "fleet-origin-rpc-amp")
		b.ReportMetric(res.RequestAmp, "fleet-request-amp")
		b.ReportMetric(float64(res.Stats.Shed), "fleet-shed-total")
	}
}

// BenchmarkAcceleratedLookup measures one-hop lookups against a
// converged snapshot (near-zero churn amplitude): the best case the
// accelerated client buys. The reported metric comes from the same
// runs the loop times.
func BenchmarkAcceleratedLookup(b *testing.B) {
	msgs := 0.0
	for i := 0; i < b.N; i++ {
		res := experiments.RunRoutingComparison(experiments.RoutingConfig{
			NetworkSize: 150, Objects: 2, Ticks: 1, Window: 2 * time.Hour,
			ChurnAmplitude: 0.01, Seed: int64(7 + i),
		})
		msgs = res.Router(routing.KindAccelerated).RetrMsgs.Mean()
	}
	b.ReportMetric(msgs, "retr-msgs")
}

// --- micro-benchmarks of the hot paths ---

// BenchmarkCidSum measures CID computation over 256 KiB chunks.
func BenchmarkCidSum(b *testing.B) {
	data := bytes.Repeat([]byte{1}, 256*1024)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cid.Sum(multicodec.Raw, data)
	}
}

// BenchmarkDagBuild measures importing a 4 MiB file.
func BenchmarkDagBuild(b *testing.B) {
	data := bytes.Repeat([]byte{2}, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := block.NewMemStore()
		if _, err := merkledag.NewBuilder(store, 0, 0).Add(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDagAssemble measures reassembling a 4 MiB DAG.
func BenchmarkDagAssemble(b *testing.B) {
	data := bytes.Repeat([]byte{3}, 4<<20)
	store := block.NewMemStore()
	root, err := merkledag.NewBuilder(store, 0, 0).Add(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merkledag.Assemble(store, root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackStoreServe loads the pack blockstore with a million
// small blocks — the regime the gateway serves from (§5: many tiny
// objects, random access) — and measures put throughput and random-Get
// latency. A scaled-down FSStore run rides along for comparison: one
// file per block cannot hold a million blocks in CI, which is exactly
// the gap the pack engine closes.
func BenchmarkPackStoreServe(b *testing.B) {
	const (
		packBlocks = 1_000_000
		fsBlocks   = 20_000
		blockSize  = 256
		getOps     = 50_000
	)
	fill := func(s block.Store, n int) ([]cid.Cid, float64) {
		cids := make([]cid.Cid, n)
		buf := make([]byte, blockSize)
		start := time.Now()
		for j := range cids {
			buf[0], buf[1], buf[2], buf[3] = byte(j), byte(j>>8), byte(j>>16), byte(j>>24)
			blk := block.New(multicodec.Raw, buf)
			if err := s.Put(blk); err != nil {
				b.Fatal(err)
			}
			cids[j] = blk.Cid()
		}
		mbps := float64(n*blockSize) / time.Since(start).Seconds() / 1e6
		return cids, mbps
	}
	randomGets := func(s block.Store, cids []cid.Cid) *stats.Sample {
		rng := rand.New(rand.NewSource(42))
		sample := stats.NewSample()
		for k := 0; k < getOps; k++ {
			c := cids[rng.Intn(len(cids))]
			start := time.Now()
			if _, err := s.Get(c); err != nil {
				b.Fatal(err)
			}
			sample.Add(float64(time.Since(start).Microseconds()))
		}
		return sample
	}
	for i := 0; i < b.N; i++ {
		ps, err := block.NewPackStore(b.TempDir(), block.PackConfig{})
		if err != nil {
			b.Fatal(err)
		}
		cids, putMbps := fill(ps, packBlocks)
		if err := ps.Flush(); err != nil {
			b.Fatal(err)
		}
		sample := randomGets(ps, cids)
		b.ReportMetric(putMbps, "pack-put-mbps")
		b.ReportMetric(sample.Percentile(50), "pack-get-p50-us")
		b.ReportMetric(sample.Percentile(99), "pack-get-p99-us")
		ps.Close()

		fs, err := block.NewFSStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		fsCids, fsMbps := fill(fs, fsBlocks)
		fsSample := randomGets(fs, fsCids)
		b.ReportMetric(fsMbps, "fs-put-mbps")
		b.ReportMetric(fsSample.Percentile(99), "fs-get-p99-us")
	}
}

// BenchmarkPackStoreDelete measures what one Delete costs a pack store
// that already holds many tombstones: the Delete plus the candidate scan
// its kick wakes (CompactNow, called inline; the background loop is
// off). Every case builds at least eight sealed volumes and checks that
// none of them is compactable, so each scan finds nothing and ns/op is
// the scan's own cost.
//
//   - tombstones=N: N tombstones spread over the sealed volumes, each
//     masking a put one volume back, every volume near a 0.35 dead
//     ratio. No volume reaches the threshold on its raw dead bytes, so
//     the scan must stay O(volumes): ns/op flat in N.
//   - small-blocks: 256 B blocks and a GC-sweep burst whose tombstones
//     fill one sealed volume. Its raw dead ratio is past the threshold
//     but every tombstone in it is still needed, so each scan walks
//     them: ns/op is that volume's tombstone count times one O(1)
//     tombstoneNeeded.
//
// The deleted victims are 64 B blocks put into the active volume before
// the timer starts; the store is reopened at the default volume cap
// first, so their records never seal a volume mid-measurement.
func BenchmarkPackStoreDelete(b *testing.B) {
	cases := []struct {
		name      string
		blockSize int
		spread    int // tombstones spread over the sealed volumes
		burst     int // tombstones appended in one sweep at the end
	}{
		{"tombstones=1000", 512, 1000, 0},
		{"tombstones=20000", 512, 20000, 0},
		{"small-blocks", 256, 0, 4000},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			// One block in three (spread) or two in five (burst) dies.
			standing := 3*tc.spread + 5*tc.burst/2
			perVolume := standing / 10
			standing += perVolume            // the spread deletes lag one volume behind
			recLen := 15 + 36 + tc.blockSize // record header, CIDv1 sha2-256, payload
			dir := b.TempDir()
			cfg := block.PackConfig{VolumeSizeCap: int64(perVolume * recLen), DisableBackground: true}
			ps, err := block.NewPackStore(dir, cfg)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, tc.blockSize)
			put := func(tag byte, i int) cid.Cid {
				buf[0], buf[1], buf[2], buf[3], buf[4] = tag, byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				blk := block.New(multicodec.Raw, buf)
				if err := ps.Put(blk); err != nil {
					b.Fatal(err)
				}
				return blk.Cid()
			}
			// sealActive pads the active volume with live blocks until it
			// rotates.
			sealActive := func(tag byte) {
				for i, n := 0, ps.VolumeCount(); ps.VolumeCount() == n; i++ {
					put(tag, i)
				}
			}
			cids := make([]cid.Cid, standing)
			for i := range cids {
				cids[i] = put('s', i)
				if j := i - perVolume; tc.spread > 0 && j >= 0 && j%3 == 0 {
					ps.Delete(cids[j])
				}
			}
			if tc.burst > 0 {
				sealActive('p')
				for i, c := range cids {
					if i%5 < 2 {
						ps.Delete(c)
					}
				}
				sealActive('q')
			}
			if err := ps.Close(); err != nil {
				b.Fatal(err)
			}

			cfg.VolumeSizeCap = 0
			if ps, err = block.NewPackStore(dir, cfg); err != nil {
				b.Fatal(err)
			}
			defer ps.Close()
			buf = make([]byte, 64)
			victims := make([]cid.Cid, b.N)
			for i := range victims {
				victims[i] = put('v', i)
			}
			volumes := ps.VolumeCount()
			if err := ps.CompactNow(); err != nil {
				b.Fatal(err)
			}
			if got := ps.VolumeCount(); got != volumes || volumes < 9 {
				b.Fatalf("set-up: %d volumes, %d after CompactNow; want >= 9 and nothing to compact", volumes, got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps.Delete(victims[i])
				if err := ps.CompactNow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKBucketNearest measures closest-peer selection — what a
// responder does for every FIND_NODE / GET_PROVIDERS hop — at the table
// sizes the 2000-peer simnet (≈150 entries) and perfbench's isolated
// probe (500) see.
func BenchmarkKBucketNearest(b *testing.B) {
	for _, n := range []int{150, 500} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			table := kbucket.NewTable(peer.MustNewIdentity(rng).ID, 20)
			for i := 0; i < n; i++ {
				id := peer.MustNewIdentity(rng).ID
				table.Insert(id, kbucket.KeyForPeer(id))
			}
			key := kbucket.KeyForBytes([]byte("target"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = table.NearestPeers(key, 20)
			}
		})
	}
}

// BenchmarkTestnetBuild measures testnet.Build of the 2 000-peer network
// sim_retrieve and the experiments run on: identities, simnet nodes and
// seeded routing tables and address books. Besides ms/op, allocs/op and
// B/op it reports the live heap objects per peer the built network holds
// after a collection — what every later GC cycle of a run has to mark.
func BenchmarkTestnetBuild(b *testing.B) {
	const n = 2000
	var live float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		tn := testnet.Build(testnet.Config{N: n, Seed: 1})
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		live += (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
		runtime.KeepAlive(tn)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(live/float64(b.N), "live-objects/peer")
}

// BenchmarkDHTWalkConverge measures whole FIND_NODE walks on a 300-peer
// event-driven simnet: virtual time makes the RPCs free, so what is
// left is the walk's own bookkeeping (closestUnqueried, converged,
// closestSeen) and the responders' NearestPeers.
func BenchmarkDHTWalkConverge(b *testing.B) {
	tn := testnet.Build(testnet.Config{N: 300, Seed: 1})
	walker := tn.AddVantage(geo.EuCentral1, 2).DHT()
	b.ReportAllocs()
	err := tn.Sched.Run(context.Background(), func(ctx context.Context) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := []byte(fmt.Sprintf("walk-target-%d", i))
			closest, _, err := walker.WalkClosest(ctx, kbucket.KeyForBytes(key), key)
			if err != nil || len(closest) == 0 {
				b.Errorf("walk %d: %d peers, err %v", i, len(closest), err)
				return
			}
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerDispatch measures one sleep-and-wake — the event the
// simulator fires a hundred thousand times per run — while N other
// goroutines are parked far in the future, each sleeping under its own
// timeout as an RPC in flight does. The dispatcher looks only at what
// was marked, so ns/op and allocs/op at 20 000 parked stay within 1.3×
// of 2 000; when it asked every parked waiter at every instant, the
// cost grew with N.
func BenchmarkSchedulerDispatch(b *testing.B) {
	for _, parked := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			s := simtime.NewScheduler(nil, simtime.SchedulerOpts{})
			b.ReportAllocs()
			err := s.Run(context.Background(), func(ctx context.Context) {
				scope, release := s.WithCancel(ctx)
				g := simtime.NewGroup(s)
				for i := 0; i < parked; i++ {
					g.Go(scope, func(ctx context.Context) {
						tctx, cancel := s.WithTimeout(ctx, 48*time.Hour)
						defer cancel()
						s.Sleep(tctx, 24*time.Hour)
					})
				}
				s.Sleep(ctx, time.Second) // every sleeper has parked
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Sleep(ctx, time.Millisecond)
				}
				b.StopTimer()
				release()
				g.Wait(ctx)
			})
			if err != nil || s.Stalls() != 0 {
				b.Fatalf("run: %v, %d stalls", err, s.Stalls())
			}
		})
	}
}

// BenchmarkProviderStoreAdd measures what a DHT server pays per stored
// provider record. A million records from one publisher are added
// first (the store ends at its budget); what that state costs the
// collector is reported as heap objects per record held and the
// milliseconds of one full collection over it, and then b.N further
// Adds at the budget — each one an eviction and an insert — are timed.
func BenchmarkProviderStoreAdd(b *testing.B) {
	const prefill = 1_000_000
	provider := peer.MustNewIdentity(rand.New(rand.NewSource(1))).ID
	digest := make([]byte, 32)
	nextCid := func(i int) cid.Cid {
		digest[0], digest[1], digest[2], digest[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		c, err := cid.New(cid.V1, multicodec.Raw, multihash.FromDigest(multicodec.SHA2_256, digest))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	now := time.Unix(1_635_724_800, 0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	store := record.NewProviderStore(0, func() time.Time { return now })
	for i := 0; i < prefill; i++ {
		now = now.Add(time.Millisecond)
		store.Add(record.ProviderRecord{Cid: nextCid(i), Provider: provider, Published: now})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(store.Len())
	gcStart := time.Now()
	runtime.GC()
	gcMS := float64(time.Since(gcStart).Microseconds()) / 1000

	fresh := make([]cid.Cid, b.N)
	for i := range fresh {
		fresh[i] = nextCid(prefill + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, c := range fresh {
		now = now.Add(time.Millisecond)
		store.Add(record.ProviderRecord{Cid: c, Provider: provider, Published: now})
	}
	b.StopTimer()
	b.ReportMetric(gcMS, "gc-ms")
	b.ReportMetric(objects, "heap-objects/record")
	if store.Len() != record.MaxProviderRecords {
		b.Fatalf("store holds %d records, want the budget %d", store.Len(), record.MaxProviderRecords)
	}
}

// BenchmarkTraceRPCEvent is what one traced transport request costs the
// recorder: a fixed-size record appended under the trace lock. Nothing
// is formatted and nothing allocated but the span's slice growing
// (0 allocs/op amortised).
func BenchmarkTraceRPCEvent(b *testing.B) {
	remote := peer.MustNewIdentity(rand.New(rand.NewSource(1))).ID
	ctx, sp := telemetry.NewRecorder(nil).StartTrace(context.Background(), "retrieve")
	defer sp.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		telemetry.RPC(ctx, "GET_PROVIDERS", "lookup", remote, time.Millisecond, "")
	}
}

// BenchmarkTraceRetrieve is what recording one retrieve-shaped trace
// costs a node whose ring is full: a root and five phase spans
// (discover, bitswap-ask, want-wave, first-provider, fetch), 14
// attributes, 20 RPC events and one HAVE. Before timing, 16 recorders
// fill their rings (the 2 048 traces a 16-node tcp_pubret keeps), and
// what a retained trace costs the collector is reported as heap
// objects per trace after a collection.
func BenchmarkTraceRetrieve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var ids [4]peer.ID
	for i := range ids {
		ids[i] = peer.MustNewIdentity(rng).ID
	}
	root, err := cid.New(cid.V1, multicodec.Raw, multihash.FromDigest(multicodec.SHA2_256, make([]byte, 32)))
	if err != nil {
		b.Fatal(err)
	}
	cidStr, provider := root.String(), ids[0].String()
	record := func(rec *telemetry.Recorder) {
		ctx, tr := rec.StartTrace(context.Background(), "retrieve", telemetry.A("cid", cidStr), telemetry.A("router", "dht"))
		dctx, discover := telemetry.StartSpan(ctx, "discover")
		actx, ask := telemetry.StartSpan(dctx, "bitswap-ask")
		wctx, wave := telemetry.StartSpan(actx, "want-wave", telemetry.A("targets", "3"), telemetry.A("broadcast", "false"))
		for _, p := range ids[1:] {
			telemetry.RPC(wctx, "WANT_HAVE", "want", p, time.Millisecond, "")
		}
		wave.Have(ids[1], true)
		wave.End()
		ask.Annotate("routed", "true")
		ask.Annotate("consult-miss", "false")
		ask.End()
		for i := 0; i < 8; i++ {
			telemetry.RPC(dctx, "GET_PROVIDERS", "lookup", ids[i%len(ids)], time.Millisecond, "")
		}
		discover.Annotate("routed", "true")
		discover.Annotate("bitswap-hit", "true")
		discover.End()
		fpctx, fp := telemetry.StartSpan(ctx, "first-provider")
		fp.Annotate("provider", provider)
		telemetry.RPC(fpctx, "FIND_NODE", "lookup", ids[0], time.Millisecond, "")
		fp.Annotate("book", "false")
		fp.End()
		fctx, fetch := telemetry.StartSpan(ctx, "fetch")
		for i := 0; i < 8; i++ {
			telemetry.RPC(fctx, "WANT_BLOCK", "want", ids[1], time.Millisecond, "")
		}
		fetch.Annotate("blocks", "5")
		fetch.Annotate("failovers", "0")
		fetch.End()
		tr.Annotate("ok", "true")
		tr.Annotate("bytes", "1048576")
		tr.End()
	}
	const nodes, ring = 16, 128
	recs := make([]*telemetry.Recorder, nodes)
	for i := range recs {
		recs[i] = telemetry.NewRecorder(nil)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rec := range recs {
		for j := 0; j < ring; j++ {
			record(rec)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / (nodes * ring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record(recs[i%nodes])
	}
	b.StopTimer()
	b.ReportMetric(objects, "live-objects/trace")
	runtime.KeepAlive(recs)
}

// benchSink keeps the compiler from dropping a measured call.
var benchSink []peer.ID

// BenchmarkWireMarshal measures message encode+decode round trips.
func BenchmarkWireMarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var peers []wire.PeerInfo
	for i := 0; i < 20; i++ {
		peers = append(peers, wire.PeerInfo{ID: peer.MustNewIdentity(rng).ID})
	}
	msg := wire.Message{Type: wire.TNodes, Key: bytes.Repeat([]byte{9}, 34), Peers: peers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := msg.Marshal()
		if _, err := wire.Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireFrameBlock256K measures one served block's trip through
// the frame path the TCP transport uses: WriteFrame of a 256 KiB TBlock
// into a loopback socket, ReadFrame out of the other end. One op is one
// block; B/op counts both ends (one payload-sized buffer, the reader's).
func BenchmarkWireFrameBlock256K(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(payload)
	msg := wire.Message{Type: wire.TBlock, Key: bytes.Repeat([]byte{9}, 36), BlockData: payload}
	n := b.N
	werr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			werr <- err
			return
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			if err := wire.WriteFrame(c, msg); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		got, err := wire.ReadFrame(r)
		if err != nil || len(got.BlockData) != len(payload) {
			b.Fatalf("frame %d: %d bytes, %v", i, len(got.BlockData), err)
		}
	}
	b.StopTimer()
	if err := <-werr; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTCPRetrieve1MiB measures a whole Retrieve of a 1 MiB object
// (five blocks) between two connected TCP nodes in this process — the
// wire codec, the TCP framing, Bitswap, block construction, the store
// and the DAG assembly, without the DHT: the provider is a connected
// neighbour, so discovery is one WANT-HAVE. The requester's store is
// cleared after every op so each one fetches every block.
func BenchmarkTCPRetrieve1MiB(b *testing.B) {
	provider, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer provider.Close()
	requester, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer requester.Close()
	ctx := context.Background()
	if _, _, err := requester.Swarm().Connect(ctx, provider.ID(), provider.Addrs()); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(4)).Read(data)
	root, err := provider.Add(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := requester.Retrieve(ctx, root)
		if err != nil || len(got) != len(data) {
			b.Fatalf("retrieve %d: %d bytes, %v", i, len(got), err)
		}
		requester.ClearStore()
	}
	b.StopTimer()
	if got, _, err := requester.Retrieve(ctx, root); err != nil || !bytes.Equal(got, data) {
		b.Fatalf("retrieved object differs from the one added: %v", err)
	}
}

// BenchmarkRetrieveEndToEnd measures one simulated retrieval.
func BenchmarkRetrieveEndToEnd(b *testing.B) {
	res := experiments.RunPerformance(experiments.PerfConfig{
		NetworkSize: 200, IterationsPer: 1, Seed: 5,
	})
	retr := combinedSample(res, func(rp *experiments.RegionPerf) *stats.Sample { return rp.RetrOverall })
	b.ReportMetric(retr.Median(), "retr-p50-s")
	// The end-to-end loop itself:
	ctxEnsureUsed()
	for i := 0; i < b.N; i++ {
		_ = experiments.RunPerformance(experiments.PerfConfig{
			NetworkSize: 120, IterationsPer: 1, Seed: int64(5 + i),
		})
	}
}

func ctxEnsureUsed() context.Context { return context.Background() }

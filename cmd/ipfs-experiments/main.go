// Command ipfs-experiments regenerates every table and figure of the
// paper's evaluation (§5–§6) against the simulated network.
//
// Usage:
//
//	ipfs-experiments -run all
//	ipfs-experiments -run table4 -iters 20 -network 1000
//	ipfs-experiments -run fig8
//	ipfs-experiments -run ablations
//	ipfs-experiments -run routing -network 300 -churn-amplitude 2 -window 12h
//	ipfs-experiments -run routing -loss-sweep 0,0.1,0.2,0.3 -window 8h
//	ipfs-experiments -run routing -partition-regions us-west-1,US -partition-at 3h -heal-at 5h
//	ipfs-experiments -run routing -network 20000 -window 8h
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/geo"
)

func main() {
	var (
		run = flag.String("run", "all", "experiment id: all, table1, table2, table3, table4, table5, fig4a, fig4b, fig5, fig6, fig7a, fig7b, fig7c, fig7d, fig8, fig9, fig10, fig11, ablations, routing, gwfleet")
		// Deliberately not named -churn: that flag used to mean
		// "offline fraction", and a stale invocation must fail loudly
		// rather than silently select a different churn intensity.
		churn    = flag.Float64("churn-amplitude", 1, "churn-timeline amplitude for the routing comparison (1 = the paper's Fig 8 model, >1 churns harder, e.g. 0.01 for effectively none)")
		window   = flag.Duration("window", 0, "simulated window the routing churn timeline covers (0 selects the 24h default)")
		ticks    = flag.Int("ticks", 0, "retrieval ticks across the routing window (0 selects the default)")
		shards   = flag.Int("indexer-shards", 1, "indexer keyspace shards for the routing comparison (>1 with -indexer-replicas builds a gossiping fleet)")
		reps     = flag.Int("indexer-replicas", 1, "replicas per indexer shard")
		outage   = flag.Duration("indexer-outage-at", 0, "offset at which each shard's primary indexer goes offline for the rest of the window (0 = no outage)")
		linkLoss = flag.Float64("link-loss", 0, "network-wide per-transit loss probability for the routing comparison (each lost transit costs the drop timeout)")
		lossSwp  = flag.String("loss-sweep", "", "comma-separated loss rates (e.g. 0,0.1,0.2,0.3): one retrieval tick per entry, raising the loss rate to that entry just before the tick; overrides -ticks")
		extraLat = flag.Duration("link-extra-latency", 0, "fixed extra latency every transit pays (Pumba-style delay injection)")
		linkJit  = flag.Duration("link-jitter", 0, "per-transit jitter bound on top of -link-extra-latency (a deterministic draw per seed)")
		partRegs = flag.String("partition-regions", "", "comma-separated region codes (e.g. us-west-1,US) cut off from the rest of the network at -partition-at")
		partAt   = flag.Duration("partition-at", 0, "offset at which the -partition-regions split starts (0 = no partition)")
		healAt   = flag.Duration("heal-at", 0, "offset at which the partition heals (0 = never)")
		reachMix = flag.Bool("reachability-mix", false, "build the network with the population's sampled NAT status (Fig 7's mix: ~1/3 of peers online but refusing inbound dials)")
		network  = flag.Int("network", 600, "simulated network size for performance runs")
		iters    = flag.Int("iters", 8, "publications per region")
		pop      = flag.Int("population", 20000, "population size for deployment analyses")
		seed     = flag.Int64("seed", 42, "random seed")
		points   = flag.Int("points", 20, "CDF points per series")
		traceOut = flag.String("trace-out", "", "write the routing comparison's retrieval trace spans as JSONL to this file")
		fleetGWs = flag.Int("fleet-gateways", 4, "gateway instances in the flash-crowd fleet scenario")
		fleetMul = flag.Float64("fleet-multiplier", 100, "viral CID's arrival-rate multiple of the steady rate in the flash-crowd scenario")
		fleetDir = flag.String("fleet-origin-dir", "", "back the flash-crowd origin host with a pack-engine blockstore rooted here (empty = in-memory)")
	)
	flag.Parse()

	ids := strings.Split(*run, ",")
	want := func(prefix ...string) bool {
		for _, id := range ids {
			id = strings.TrimSpace(id)
			if id == "all" {
				return true
			}
			for _, p := range prefix {
				if id == p {
					return true
				}
			}
		}
		return false
	}

	needPerf := want("table1", "table4", "fig9", "fig10")
	needDeploy := want("table2", "table3", "fig4a", "fig5", "fig7a", "fig7b", "fig7c", "fig7d", "fig8")
	needGateway := want("table5", "fig4b", "fig6", "fig11")
	needAblations := want("ablations")
	needRouting := want("routing")
	needFleet := want("gwfleet")

	if !needPerf && !needDeploy && !needGateway && !needAblations && !needRouting && !needFleet {
		fmt.Fprintf(os.Stderr, "unknown experiment id %q\n", *run)
		flag.Usage()
		os.Exit(2)
	}

	if needPerf {
		fmt.Fprintln(os.Stderr, "running §4.3 performance experiment...")
		res := experiments.RunPerformance(experiments.PerfConfig{
			NetworkSize: *network, IterationsPer: *iters, Seed: *seed,
		})
		if want("table1") {
			fmt.Println(res.Table1())
			fmt.Println()
		}
		if want("table4") {
			fmt.Println(res.Table4())
			fmt.Println()
		}
		if want("fig9") {
			fmt.Println(res.Fig9(*points))
		}
		if want("fig10") {
			fmt.Println(res.Fig10(*points))
		}
		fmt.Println("== headline comparison ==")
		fmt.Println(res.Summary())
	}

	if needDeploy {
		fmt.Fprintln(os.Stderr, "running §5 deployment analyses...")
		res := experiments.RunDeployment(experiments.DeployConfig{
			PopulationSize: *pop, Seed: *seed,
		})
		if want("fig4a") {
			fmt.Println(res.Fig4a())
		}
		if want("fig5") {
			fmt.Println(res.Fig5())
			fmt.Println()
		}
		if want("table2") {
			fmt.Println(res.Table2())
			fmt.Println()
		}
		if want("table3") {
			fmt.Println(res.Table3())
			fmt.Println()
		}
		if want("fig7a") {
			fmt.Println(res.Fig7a())
		}
		if want("fig7b") {
			fmt.Println(res.Fig7b())
		}
		if want("fig7c") {
			fmt.Println(res.Fig7c())
		}
		if want("fig7d") {
			fmt.Println(res.Fig7d())
		}
		if want("fig8") {
			fmt.Println(res.Fig8(*points))
		}
	}

	if needGateway {
		fmt.Fprintln(os.Stderr, "running §6.3 gateway experiment...")
		res := experiments.RunGateway(experiments.GatewayConfig{Seed: *seed})
		if want("table5") {
			fmt.Println(res.Table5())
			fmt.Println()
		}
		if want("fig4b") {
			fmt.Println(res.Fig4b())
		}
		if want("fig6") {
			fmt.Println(res.Fig6())
			fmt.Println()
		}
		if want("fig11") {
			fmt.Println(res.Fig11a(*points))
			fmt.Println(res.Fig11b())
		}
	}

	if needRouting {
		fmt.Fprintln(os.Stderr, "running content-routing comparison under the churn timeline...")
		var sweep []float64
		if *lossSwp != "" {
			for _, s := range strings.Split(*lossSwp, ",") {
				rate, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
				if err != nil || rate < 0 || rate > 1 {
					fmt.Fprintf(os.Stderr, "-loss-sweep: %q is not a loss rate in [0, 1]\n", s)
					os.Exit(2)
				}
				sweep = append(sweep, rate)
			}
		}
		var partition []geo.Region
		if *partRegs != "" {
			for _, s := range strings.Split(*partRegs, ",") {
				partition = append(partition, geo.Region(strings.TrimSpace(s)))
			}
		}
		faulted := *linkLoss > 0 || len(sweep) > 0 || *extraLat > 0 || *linkJit > 0 ||
			(*partAt > 0 && len(partition) > 0) || *reachMix
		res := experiments.RunRoutingComparison(experiments.RoutingConfig{
			NetworkSize: *network, Objects: *iters, ChurnAmplitude: *churn,
			Window: *window, Ticks: *ticks,
			IndexerShards: *shards, IndexerReplicas: *reps, IndexerOutageAt: *outage,
			LinkLoss: *linkLoss, LossSweep: sweep,
			LinkExtraLatency: *extraLat, LinkJitter: *linkJit,
			PartitionRegions: partition, PartitionAt: *partAt, HealAt: *healAt,
			ReachabilityMix: *reachMix,
			Seed:            *seed,
		})
		fmt.Fprintf(os.Stderr, "scheduler: %d events dispatched, %d stalls\n", res.SchedEvents, res.SchedStalls)
		// The dispatcher's own counters (docs/OPERATIONS.md), on stderr
		// like the line above: stdout is the seeded report.
		fmt.Fprint(os.Stderr, res.Scheduler.Render())
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
			for _, tr := range res.Traces {
				if err := tr.WriteJSONL(f); err != nil {
					fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
					os.Exit(1)
				}
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote %d trace span trees to %s\n", len(res.Traces), *traceOut)
		}
		fmt.Println(res.Table())
		fmt.Println()
		fmt.Println(res.TimeSeries())
		fmt.Println()
		if faulted {
			fmt.Println(res.DegradationTable())
			fmt.Println()
		}
		fmt.Println(res.BudgetReport())
		fmt.Println("== headline comparison ==")
		fmt.Println(res.Summary())
		fmt.Println("(WANT-HAVEs counts per-session Bitswap messages: one-hop routers feed")
		fmt.Println(" sessions known providers and skip the opportunistic broadcast; the")
		fmt.Println(" Routed column is how many retrievals took that path. The time series")
		fmt.Println(" tracks the same run per phase: timeline liveness, snapshot staleness,")
		fmt.Println(" indexer record coverage, and the RPC budget spent by category.)")
	}

	if needFleet {
		fmt.Fprintln(os.Stderr, "running viral-CID flash crowd against the gateway fleet...")
		res := experiments.RunFleetScenario(experiments.FleetScenarioConfig{
			Gateways:   *fleetGWs,
			Multiplier: *fleetMul,
			OriginDir:  *fleetDir,
			Seed:       *seed,
		})
		fmt.Fprintf(os.Stderr, "scheduler: %d events dispatched, %d stalls\n", res.SchedEvents, res.SchedStalls)
		fmt.Println(res.Report())
	}

	if needAblations {
		fmt.Fprintln(os.Stderr, "running design-choice ablations...")
		acfg := experiments.AblationConfig{Seed: *seed}
		reps := experiments.RunReplicationSweep(acfg, nil, 0)
		alphas := experiments.RunAlphaSweep(acfg, nil)
		disc := experiments.RunParallelDiscovery(acfg)
		cs := experiments.RunClientServerSplit(acfg)
		caches := experiments.RunGatewayCacheSweep(acfg, nil)
		fmt.Println(experiments.RenderAblations(reps, alphas, disc, cs, caches))
	}
}

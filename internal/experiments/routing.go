package experiments

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/merkledag"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/transport"
)

// RoutingConfig tunes the content-routing comparison: the same
// simulated network serves one publisher/getter vantage pair per router
// implementation, with liveness driven by a diurnal churn timeline
// (internal/churn) instead of a one-shot offline slice — publishes,
// refresh crawls, republishes and routed Bitswap sessions all face the
// same session arrivals and departures.
type RoutingConfig struct {
	NetworkSize     int // DHT servers (default 300)
	Objects         int // publications per router (default 5)
	ObjectSizeBytes int // default 64 KiB, small so routing dominates

	// Window is the simulated span the churn timeline covers (default
	// 24 h); Ticks spreads that many retrieval/sampling phases evenly
	// across it (default 4).
	Window time.Duration
	Ticks  int
	// ChurnAmplitude scales the timeline's churn intensity: 1 is the
	// paper's Fig 8 model, >1 shortens sessions and lengthens absences.
	ChurnAmplitude float64

	// Kinds selects which routers compete (default all four).
	Kinds []routing.Kind
	// K overrides the replication / direct-query breadth (default 20);
	// churn tests shrink it so store sets actually die.
	K int
	// IndexerTTL overrides the indexer's record TTL (default 24 h);
	// staleness tests shrink it so expiry crosses the window.
	IndexerTTL time.Duration
	// IndexerShards / IndexerReplicas select the sharded indexer
	// topology: R shards partitioning the CID keyspace by XOR distance,
	// each served by a gossiping replica group. Defaults of 1/1 keep
	// the single-indexer deployment.
	IndexerShards   int
	IndexerReplicas int
	// IndexerOutageAt, when > 0, schedules an "ix-outage" phase at that
	// offset taking each shard's primary replica offline for the rest
	// of the window — the availability stress the replica groups exist
	// to absorb.
	IndexerOutageAt time.Duration
	// NoRepublish / NoRefresh drop the background phases scheduled at
	// mid-window, isolating pure decay for the monotonicity tests.
	NoRepublish bool
	NoRefresh   bool

	// QueryTimeout / BitswapTimeout pass through to every node.
	QueryTimeout   time.Duration
	BitswapTimeout time.Duration

	// LinkLoss installs a network-wide per-transit loss probability from
	// the window start; LinkExtraLatency / LinkJitter tax every transit
	// (the Pumba-style delay injection of the paper's adversarial
	// conditions). LossSweep instead schedules one retrieval tick per
	// entry, raising the loss rate to that entry one minute before the
	// tick — the sustained packet-loss sweep scenario. A non-empty
	// LossSweep overrides Ticks.
	LinkLoss         float64
	LossSweep        []float64
	LinkExtraLatency time.Duration
	LinkJitter       time.Duration
	// PartitionRegions, with PartitionAt > 0, schedules a "partition"
	// phase cutting the named regions off from the rest of the network
	// at that offset; HealAt > 0 schedules the matching "heal" phase.
	PartitionRegions []geo.Region
	PartitionAt      time.Duration
	HealAt           time.Duration
	// ReachabilityMix builds the network with the population's sampled
	// dialability (Fig 7's mix: ~1/3 of peers NAT'd, online but refusing
	// inbound dials) instead of the default everyone-dialable servers.
	ReachabilityMix bool

	Seed int64
}

func (c RoutingConfig) withDefaults() RoutingConfig {
	if c.NetworkSize <= 0 {
		c.NetworkSize = 300
	}
	if c.Objects <= 0 {
		c.Objects = 5
	}
	if c.ObjectSizeBytes <= 0 {
		c.ObjectSizeBytes = 64 * 1024
	}
	if c.Window <= 0 {
		c.Window = 24 * time.Hour
	}
	if len(c.LossSweep) > 0 {
		// One retrieval tick per sweep entry: tick i runs under loss
		// rate LossSweep[i-1].
		c.Ticks = len(c.LossSweep)
	}
	if c.Ticks <= 0 {
		c.Ticks = 4
	}
	if c.ChurnAmplitude <= 0 {
		c.ChurnAmplitude = 1
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []routing.Kind{routing.KindDHT, routing.KindAccelerated, routing.KindIndexer, routing.KindParallel}
	}
	if c.IndexerShards <= 0 {
		c.IndexerShards = 1
	}
	if c.IndexerReplicas <= 0 {
		c.IndexerReplicas = 1
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// RouterTick is one router's outcome at one retrieval tick, paired with
// the health the scenario sampled at that instant.
type RouterTick struct {
	Offset         time.Duration
	Retrievals     int
	Failures       int
	RoutedSessions int
	SnapshotStale  float64 // accelerated snapshot staleness at the tick
	IndexerHit     float64 // indexer record coverage at the tick
	LossRate       float64 // link-loss probability in force at the tick
	Partitioned    int     // regions the partition covered at the tick
}

// HitRate is the tick's retrieval success fraction (NaN before any
// retrievals) — the degradation scenarios' headline metric.
func (t RouterTick) HitRate() float64 {
	if t.Retrievals == 0 {
		return math.NaN()
	}
	return 1 - float64(t.Failures)/float64(t.Retrievals)
}

// RouterPerf aggregates one router implementation's measurements.
type RouterPerf struct {
	Kind routing.Kind
	Name string // the router's self-reported name (parallel lists members)

	Publications int
	Retrievals   int
	Failures     int

	// RoutedSessions counts retrievals whose Bitswap session peer came
	// from the router (the WANT-HAVE broadcast was skipped entirely).
	RoutedSessions int
	// Failovers counts mid-session provider switches under churn.
	Failovers int
	// RepubCIDs is the CID count of the last republish cycle, the
	// denominator for the batched RPCs-per-cycle comparison.
	RepubCIDs int

	// Ticks is the per-retrieval-tick time series.
	Ticks []RouterTick

	PubLatency    *stats.Sample // seconds per publish
	PubMsgs       *stats.Sample // routing RPCs per publish
	RetrLatency   *stats.Sample // seconds per retrieval
	RetrMsgs      *stats.Sample // routing RPCs per retrieval (discovery + session consults + fail-over)
	RetrWantHaves *stats.Sample // Bitswap WANT-HAVE messages per retrieval
	// RetrTTFP is the time-to-first-provider per retrieval: start to
	// the first provider known (Bitswap hit or first streamed batch).
	RetrTTFP *stats.Sample
	// RetrLookupFull is the provider stream's full duration per
	// retrieval — the wait the old blocking lookup would have put on
	// the critical path; TTFP sitting below it is the streaming win.
	RetrLookupFull *stats.Sample
	// RepubRPCs is the routing RPCs per republish cycle: with batched
	// ProvideMany this stays at or below the distinct target-peer
	// count, instead of CIDs × (walk + store fan-out).
	RepubRPCs *stats.Sample
}

func newRouterPerf(kind routing.Kind) *RouterPerf {
	return &RouterPerf{
		Kind:           kind,
		PubLatency:     stats.NewSample(),
		PubMsgs:        stats.NewSample(),
		RetrLatency:    stats.NewSample(),
		RetrMsgs:       stats.NewSample(),
		RetrWantHaves:  stats.NewSample(),
		RetrTTFP:       stats.NewSample(),
		RetrLookupFull: stats.NewSample(),
		RepubRPCs:      stats.NewSample(),
	}
}

// FallbackRate is the fraction of retrievals whose session peer did
// NOT come from the router: the broadcast/walk fallback carried them,
// or they failed outright. It rises as churn leaves the one-hop view
// stale. NaN before any retrievals.
func (rp *RouterPerf) FallbackRate() float64 {
	if rp.Retrievals == 0 {
		return math.NaN()
	}
	return 1 - float64(rp.RoutedSessions)/float64(rp.Retrievals)
}

// RoutingResults is the outcome of the comparison.
type RoutingResults struct {
	Cfg     RoutingConfig
	Routers []*RouterPerf
	// Phases is the scenario time series: one row per scheduled phase
	// (publish, each retrieval tick, mid-window refresh/republish).
	Phases []PhaseSample
	// Budget is the cumulative network-wide RPC budget of the whole
	// experiment, by category.
	Budget simnet.Budget
	// Traces is every span tree the vantage nodes recorded during the
	// scheduled phases, in phase order — the raw material for the delay
	// decomposition and for -trace-out JSONL export.
	Traces []*telemetry.Trace
	// Metrics aggregates the vantage nodes' labeled metric registries
	// network-wide (raw samples merged, so percentiles are exact).
	Metrics telemetry.MetricsSnapshot

	// SchedStalls / SchedEvents report the run's scheduler: SchedEvents
	// is how many queue events fired, and SchedStalls how often the
	// dispatcher fell back to its real-time grace timer — non-zero means
	// some wait on the workload path escaped instrumentation, which
	// forfeits deterministic replay.
	SchedStalls int64
	SchedEvents int64
	// Scheduler holds the dispatcher's counters as simtime_* gauges:
	// marks by cause, parked and polled set sizes, stale ready entries.
	Scheduler telemetry.MetricsSnapshot
	// SetupWall / RunWall split the wall clock the comparison cost into
	// building the network (identities, routing tables, vantage nodes)
	// and running the scenario on the scheduler.
	SetupWall, RunWall time.Duration

	// corrupt counts retrievals that returned bytes which do not rebuild
	// their root CID; each is a failure too.
	corrupt int
}

// rebuilds reports whether data chunks and links into root, as the
// publisher's import did.
func rebuilds(root cid.Cid, data []byte) bool {
	c, err := merkledag.NewBuilder(block.NewMemStore(), 0, 0).Add(data)
	return err == nil && c.Equal(root)
}

// routerPair is one router's publisher/getter vantage pair plus its
// published roots.
type routerPair struct {
	rp        *RouterPerf
	kind      routing.Kind
	publisher *core.Node
	getter    *core.Node
	prng      *rand.Rand
	roots     []cid.Cid
}

// RunRoutingComparison measures publish/retrieve latency and routing
// message counts for the DHT walk, the accelerated one-hop client, the
// delegated indexer, and the parallel composite on one simulated
// network whose liveness follows a diurnal churn timeline. Every router
// faces the same timeline, the same tick schedule, and the same object
// sizes; snapshots are taken at the publish tick, so later retrievals
// run against an increasingly stale one-hop view — the hard case.
func RunRoutingComparison(cfg RoutingConfig) *RoutingResults {
	cfg = cfg.withDefaults()
	wallStart := time.Now()
	tn := testnet.Build(testnet.Config{
		N:              cfg.NetworkSize,
		Seed:           cfg.Seed,
		K:              cfg.K,
		QueryTimeout:   cfg.QueryTimeout,
		BitswapTimeout: cfg.BitswapTimeout,
		// Fault injection: the initial loss/latency profile (the loss
		// sweep raises LossRate later via scheduled phases) and the Fig 7
		// reachability mix.
		Faults: simnet.FaultProfile{
			LossRate:     cfg.LinkLoss,
			ExtraLatency: cfg.LinkExtraLatency,
			Jitter:       cfg.LinkJitter,
		},
		ReachabilityMix: cfg.ReachabilityMix,
		// The timeline is the only churn lever: behaviour classes stay
		// near zero so stale entries come from real departures.
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	// One indexer keeps the classic deployment; shards/replicas > 1
	// build a gossiping fleet the scenario engine observes per shard.
	fleet := tn.AddIndexerSet(cfg.Seed+7, cfg.IndexerShards, cfg.IndexerReplicas, cfg.IndexerTTL)
	sharded := cfg.IndexerShards > 1 || cfg.IndexerReplicas > 1

	sc := NewScenarioRunner(tn, ScenarioConfig{
		Window:    cfg.Window,
		Amplitude: cfg.ChurnAmplitude,
		Seed:      cfg.Seed + 13,
		// NAT'd peers hold ordinary sessions under the reachability mix;
		// the transport enforces their unreachability.
		NATSessions: cfg.ReachabilityMix,
	})
	if sharded {
		sc.ObserveIndexerFleet(fleet.Set, fleet.Nodes()...)
	} else {
		sc.ObserveIndexer(fleet.Replica(0, 0))
	}
	addVantage := func(region geo.Region, seed int64, kind routing.Kind) *core.Node {
		if sharded {
			return tn.AddVantageSharded(region, seed, kind, fleet.Set)
		}
		return tn.AddVantageRouting(region, seed, kind, fleet.Set.All())
	}

	res := &RoutingResults{Cfg: cfg}
	var pairs []*routerPair
	for i, kind := range cfg.Kinds {
		rp := newRouterPerf(kind)
		res.Routers = append(res.Routers, rp)
		p := &routerPair{
			rp:        rp,
			kind:      kind,
			publisher: addVantage(geo.EuCentral1, cfg.Seed+int64(100+i), kind),
			getter:    addVantage(geo.UsWest1, cfg.Seed+int64(200+i), kind),
			prng:      rand.New(rand.NewSource(cfg.Seed + int64(1000*i))),
		}
		rp.Name = p.publisher.Router().Name()
		sc.ObserveAccelerated(p.publisher.Accelerated(), p.getter.Accelerated())
		sc.ObserveTelemetry(p.publisher.Telemetry(), p.getter.Telemetry())
		pairs = append(pairs, p)
	}

	// The outage lever: each shard's primary replica goes dark at the
	// scheduled offset and stays dark — lookups must fail over to the
	// surviving replicas, and gossip must have already replicated the
	// primary's records for them to answer.
	if cfg.IndexerOutageAt > 0 {
		sc.Schedule("ix-outage", cfg.IndexerOutageAt, func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
			for _, group := range fleet.Groups {
				tn.Net.SetOnline(group[0].ID(), false)
			}
			return PhaseOutcome{}
		})
	}

	// The partition lever: the named regions are cut off from the rest
	// of the network at PartitionAt and — when HealAt is scheduled —
	// rejoined mid-window, so the ticks in between measure a split brain
	// and the ticks after measure recovery.
	if cfg.PartitionAt > 0 && len(cfg.PartitionRegions) > 0 {
		sc.Schedule("partition", cfg.PartitionAt, func(context.Context, PhaseInfo) PhaseOutcome {
			tn.Net.Partition(cfg.PartitionRegions...)
			return PhaseOutcome{}
		})
		if cfg.HealAt > cfg.PartitionAt {
			sc.Schedule("heal", cfg.HealAt, func(context.Context, PhaseInfo) PhaseOutcome {
				tn.Net.Heal()
				return PhaseOutcome{}
			})
		}
	}

	// The loss-sweep lever: one transition phase per sweep entry, a
	// minute ahead of its retrieval tick, raising the network-wide loss
	// rate while keeping the configured extra latency/jitter.
	for i, rate := range cfg.LossSweep {
		rate := rate
		off := time.Duration(i+1)*cfg.Window/time.Duration(cfg.Ticks) - time.Minute
		sc.Schedule(fmt.Sprintf("loss->%.0f%%", 100*rate), off, func(context.Context, PhaseInfo) PhaseOutcome {
			tn.Net.SetFaults(simnet.FaultProfile{
				LossRate:     rate,
				ExtraLatency: cfg.LinkExtraLatency,
				Jitter:       cfg.LinkJitter,
			})
			return PhaseOutcome{}
		})
	}

	// Phase 1, tick 0: snapshot crawls and publications against
	// whatever the timeline has online at the window start.
	sc.Schedule("publish", 0, func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
		var out PhaseOutcome
		payload := make([]byte, cfg.ObjectSizeBytes)
		for _, p := range pairs {
			// The peer record is part of publication traffic; tag it so
			// the budget does not misfile it under foreground lookups
			// (Node.Publish tags its own provide tree the same way).
			p.publisher.DHT().PublishPeerRecord(transport.WithRPCCategory(ctx, transport.CatPublish))
			p.publisher.RefreshRoutingSnapshot(ctx)
			p.getter.RefreshRoutingSnapshot(ctx)
			for j := 0; j < cfg.Objects; j++ {
				p.prng.Read(payload)
				pub, err := p.publisher.AddAndPublish(ctx, payload)
				p.rp.Publications++
				out.Ops++
				if err != nil {
					p.rp.Failures++
					out.Failures++
					continue
				}
				p.roots = append(p.roots, pub.Cid)
				p.rp.PubLatency.AddDuration(pub.TotalDuration)
				p.rp.PubMsgs.Add(float64(routing.ProvideMessages(pub.ProvideResult)))
				if p.kind == routing.KindIndexer {
					sc.TrackRoots(pub.Cid)
				}
			}
		}
		return out
	})

	// Background phases at mid-window: the snapshot re-crawl and the
	// §3.1 republish cycle, so their traffic shows up in the budget
	// next to foreground lookups.
	if !cfg.NoRefresh {
		sc.Schedule("refresh", cfg.Window/2, func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
			var out PhaseOutcome
			for _, p := range pairs {
				for _, n := range []*core.Node{p.publisher, p.getter} {
					if n.Accelerated() == nil {
						continue
					}
					out.Ops++
					if _, err := n.RefreshRoutingSnapshot(ctx); err != nil {
						out.Failures++
					}
				}
			}
			return out
		})
	}
	if !cfg.NoRepublish {
		sc.Schedule("republish", cfg.Window/2+time.Minute, func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
			var out PhaseOutcome
			for _, p := range pairs {
				st := p.publisher.Republish(ctx)
				out.Ops += st.Batch.CIDs + 1 // + the peer record
				out.Failures += st.Batch.CIDs - st.Batch.Provided
				if !st.PeerRecordOK {
					out.Failures++
				}
				p.rp.RepubCIDs = st.Batch.CIDs
				p.rp.RepubRPCs.Add(float64(st.Batch.Msgs()))
			}
			return out
		})
	}

	// Retrieval ticks: every router retrieves every object against the
	// liveness the timeline dictates at that instant. Bystanders are
	// drawn from peers currently online so every router's opportunistic
	// Bitswap phase faces the same live neighbourhood.
	for i := 1; i <= cfg.Ticks; i++ {
		off := time.Duration(i) * cfg.Window / time.Duration(cfg.Ticks)
		sc.Schedule("retrieve"+fmtOffset(off), off, func(ctx context.Context, info PhaseInfo) PhaseOutcome {
			var out PhaseOutcome
			live := tn.OnlineNodes()
			for _, p := range pairs {
				tick := RouterTick{Offset: off, SnapshotStale: info.SnapshotStale, IndexerHit: info.IndexerHit,
					LossRate: info.LossRate, Partitioned: info.Partitioned}
				for _, root := range p.roots {
					testnet.FlushVantage(p.getter)
					for k := 0; k < 2 && len(live) > 0; k++ {
						b := live[p.prng.Intn(len(live))]
						p.getter.Swarm().Connect(ctx, b.ID(), b.Addrs())
					}
					p.rp.Retrievals++
					tick.Retrievals++
					out.Ops++
					data, rres, err := p.getter.Retrieve(ctx, root)
					if err == nil && !rebuilds(root, data) {
						res.corrupt++
						err = fmt.Errorf("retrieved bytes do not hash to %s", root)
					}
					if err != nil || len(data) != cfg.ObjectSizeBytes {
						p.rp.Failures++
						tick.Failures++
						out.Failures++
						p.getter.ClearStore()
						continue
					}
					p.rp.RetrLatency.AddDuration(rres.Total)
					p.rp.RetrMsgs.Add(float64(rres.LookupMsgs))
					p.rp.RetrWantHaves.Add(float64(rres.WantHaves))
					p.rp.RetrTTFP.AddDuration(rres.FirstProvider)
					// The blocking-wait equivalent: Bitswap phase plus the
					// full lookup (what retrieval used to wait on).
					p.rp.RetrLookupFull.AddDuration(rres.BitswapPhase + rres.LookupFull)
					if rres.RoutedSession {
						p.rp.RoutedSessions++
						tick.RoutedSessions++
						out.Routed++
					}
					p.rp.Failovers += rres.SessionFailovers
					p.getter.ClearStore()
				}
				p.rp.Ticks = append(p.rp.Ticks, tick)
			}
			return out
		})
	}

	runStart := time.Now()
	res.SetupWall = runStart.Sub(wallStart)
	res.Phases = sc.Run(context.Background())
	res.RunWall = time.Since(runStart)
	res.Budget = tn.Net.Budget()
	res.SchedStalls = tn.Sched.Stalls()
	res.SchedEvents = tn.Sched.Dispatched()
	res.Traces = sc.Traces()
	sreg := telemetry.NewRegistry()
	sreg.RecordScheduler(tn.Sched)
	res.Scheduler = sreg.Snapshot()
	var regs []*telemetry.Registry
	for _, p := range pairs {
		regs = append(regs, p.publisher.Telemetry().Registry(), p.getter.Telemetry().Registry())
	}
	res.Metrics = telemetry.AggregateRegistries(regs...)
	return res
}

// Table renders the side-by-side router comparison: latency, message
// counts, time-to-first-provider (the streaming-discovery metric), and
// the batched republish cost per cycle.
func (r *RoutingResults) Table() string {
	t := stats.NewTable("Router", "Pub p50", "Pub msgs", "Retr p50", "TTFP p50", "Retr msgs", "WANT-HAVEs", "Repub RPC/cyc", "Routed", "OK", "Fail")
	for _, rp := range r.Routers {
		ok := rp.Publications + rp.Retrievals - rp.Failures
		repub := "-"
		if rp.RepubRPCs.Len() > 0 {
			repub = fmt.Sprintf("%.0f (%d cids)", rp.RepubRPCs.Mean(), rp.RepubCIDs)
		}
		t.AddRow(string(rp.Kind),
			fmt.Sprintf("%.2fs", rp.PubLatency.Percentile(50)),
			fmt.Sprintf("%.1f", rp.PubMsgs.Mean()),
			fmt.Sprintf("%.2fs", rp.RetrLatency.Percentile(50)),
			fmt.Sprintf("%.2fs", rp.RetrTTFP.Percentile(50)),
			fmt.Sprintf("%.1f", rp.RetrMsgs.Mean()),
			fmt.Sprintf("%.1f", rp.RetrWantHaves.Mean()),
			repub,
			fmt.Sprintf("%d/%d", rp.RoutedSessions, rp.Retrievals),
			ok, rp.Failures)
	}
	return fmt.Sprintf("Routing comparison: %d-peer network, %d objects/router, %d retrieval ticks over %s, churn amplitude %.1f\n",
		r.Cfg.NetworkSize, r.Cfg.Objects, r.Cfg.Ticks, r.Cfg.Window, r.Cfg.ChurnAmplitude) + t.String()
}

// TimeSeries renders the per-phase scenario series: the timeline-driven
// liveness, the routers' health (snapshot staleness, indexer record
// coverage), the workload outcome, the span-derived discovery columns,
// and the RPC budget each phase spent — one column per category in
// simnet.BudgetCategories order, so every row's categories sum to its
// RPCs column.
func (r *RoutingResults) TimeSeries() string {
	head := fmt.Sprintf("Churn-scenario time series: %d peers, %d routers, window %s, amplitude %.1f\n",
		r.Cfg.NetworkSize, len(r.Routers), r.Cfg.Window, r.Cfg.ChurnAmplitude)
	cols := []string{"Phase", "At", "Online", "SnapStale", "IxHit", "ShardHit", "IxUp", "Loss", "Part", "Ops", "Fail", "Routed",
		"Disc99", "FirstHop", "RPCs", "drop"}
	for _, cat := range simnet.BudgetCategories {
		cols = append(cols, string(cat))
	}
	t := stats.NewTable(cols...)
	for _, ps := range r.Phases {
		row := []interface{}{ps.Phase, fmtOffset(ps.Offset), ps.Online,
			fmtHealth(ps.SnapshotStale), fmtHealth(ps.IndexerHit),
			fmtHealth(ps.ShardHitMean()), fmtHealth(ps.ReplicaUp),
			fmtHealth(ps.LossRate), ps.Partitioned,
			ps.Ops, ps.Failures, ps.Routed,
			fmtSecs(ps.DiscoverP99), fmtHealth(ps.FirstHopShare), ps.Budget.Requests, ps.Budget.Dropped}
		for _, cat := range simnet.BudgetCategories {
			row = append(row, ps.Budget.Category(cat))
		}
		t.AddRow(row...)
	}
	return head + t.String()
}

// BudgetReport renders the cumulative network-wide RPC budget.
func (r *RoutingResults) BudgetReport() string {
	return "Network-wide RPC budget: " + r.Budget.String() + "\n"
}

// Router returns the stats for one kind, or nil.
func (r *RoutingResults) Router(kind routing.Kind) *RouterPerf {
	for _, rp := range r.Routers {
		if rp.Kind == kind {
			return rp
		}
	}
	return nil
}

// Summary prints the headline comparisons: how much of the multi-hop
// walk each alternative removes.
func (r *RoutingResults) Summary() string {
	var b strings.Builder
	base := r.Router(routing.KindDHT)
	if base == nil || base.RetrMsgs.Len() == 0 {
		return "no baseline measurements\n"
	}
	fmt.Fprintf(&b, "dht baseline: %.1f routing msgs and %.1f WANT-HAVEs per retrieval, retr p50 %.2fs, pub p50 %.2fs\n",
		base.RetrMsgs.Mean(), base.RetrWantHaves.Mean(),
		base.RetrLatency.Percentile(50), base.PubLatency.Percentile(50))
	if base.RetrTTFP.Len() > 0 {
		fmt.Fprintf(&b, "dht streaming discovery: time-to-first-provider p50 %.2fs vs %.2fs blocking-lookup wait\n",
			base.RetrTTFP.Percentile(50), base.RetrLookupFull.Percentile(50))
	}
	for _, rp := range r.Routers {
		if rp.RepubRPCs.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s batched republish: %.0f RPCs/cycle for %d cids\n",
			rp.Kind, rp.RepubRPCs.Mean(), rp.RepubCIDs)
	}
	for _, rp := range r.Routers {
		if rp.Kind == routing.KindDHT || rp.RetrMsgs.Len() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: %.1f msgs (%.1fx) and %.1f WANT-HAVEs (%.1fx) per retrieval, %d/%d routed sessions, retr p50 %.2fs, pub p50 %.2fs\n",
			rp.Kind, rp.RetrMsgs.Mean(), rp.RetrMsgs.Mean()/base.RetrMsgs.Mean(),
			rp.RetrWantHaves.Mean(), rp.RetrWantHaves.Mean()/base.RetrWantHaves.Mean(),
			rp.RoutedSessions, rp.Retrievals,
			rp.RetrLatency.Percentile(50), rp.PubLatency.Percentile(50))
	}
	return b.String()
}

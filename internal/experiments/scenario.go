package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/churn"
	"repro/internal/cid"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/testnet"
)

// ScenarioConfig tunes the churn-scenario engine.
type ScenarioConfig struct {
	// Window is the simulated span the churn timeline covers.
	Window time.Duration
	// Amplitude scales the timeline's churn intensity (1 = the paper's
	// Fig 8 session/gap model).
	Amplitude float64
	// Seed drives timeline generation.
	Seed int64
	// NATSessions gives undialable peers ordinary churned sessions
	// (online, originating traffic, refusing inbound dials) instead of
	// keeping them permanently absent — the Fig 7 reachability-mix
	// scenarios pair it with testnet.Config.ReachabilityMix.
	NATSessions bool
}

// PhaseOutcome is what one workload phase reports back to the runner.
type PhaseOutcome struct {
	Ops      int // operations attempted (publishes, retrievals, republishes)
	Failures int
	Routed   int // retrievals whose Bitswap session was router-fed
}

// PhaseInfo is what the runner hands a workload phase: the tick's
// instant and the liveness/health it sampled right after applying the
// timeline — the single source of truth, so phases never re-sample.
type PhaseInfo struct {
	Now           time.Time
	Offset        time.Duration
	Online        int
	SnapshotStale float64
	IndexerHit    float64
	// LossRate is the network-default link-loss probability in force
	// when the phase starts; Partitioned is how many regions the current
	// partition covers (0 = whole network).
	LossRate    float64
	Partitioned int
}

// PhaseSample is one row of the scenario time series: the network and
// router-health state at a phase's tick plus what the workload did and
// what it cost the network.
type PhaseSample struct {
	Phase  string
	Offset time.Duration // into the timeline window
	Online int           // server peers the timeline has online

	// SnapshotStale is the fraction of observed accelerated-router
	// snapshot entries currently offline (NaN when none registered).
	SnapshotStale float64
	// IndexerHit is the fraction of tracked roots some online observed
	// indexer responsible for the root's shard still holds an unexpired
	// record for (NaN when none registered).
	IndexerHit float64
	// ShardHits is the per-shard indexer hit rate at the tick: for each
	// shard, the fraction of its tracked roots covered by an online
	// replica. Nil when a lone indexer is observed; NaN entries mark
	// shards with no tracked roots.
	ShardHits []float64
	// ReplicaUp is the fraction of observed indexer replicas currently
	// online — the availability lever indexer-outage scenarios pull
	// (NaN when no indexers are observed).
	ReplicaUp float64

	// LossRate is the network-default link-loss probability after the
	// phase ran (so a fault-transition phase's own row shows the state
	// it installed); Partitioned is how many regions the partition
	// covers then (0 = whole network).
	LossRate    float64
	Partitioned int

	// DiscoverP99 is the 99th-percentile sim-accurate duration of the
	// "discover" trace span across the retrievals traced in this phase,
	// in seconds (NaN when no observed recorder traced a retrieval).
	DiscoverP99 float64
	// FirstHopShare is the fraction of traced retrievals whose discover
	// phase resolved a provider within at most one lookup RPC (NaN when
	// none were traced).
	FirstHopShare float64
	// TracedOps is how many traces the observed recorders produced
	// during the phase (all root operations, not just retrievals).
	TracedOps int

	// Budget is the network-wide RPC spend during this phase, by
	// category.
	Budget simnet.Budget

	PhaseOutcome
}

// ShardHitMean averages the per-shard hit rates, skipping shards with
// no tracked roots; NaN when a lone indexer is observed.
func (ps PhaseSample) ShardHitMean() float64 {
	sum, n := 0.0, 0
	for _, h := range ps.ShardHits {
		if !math.IsNaN(h) {
			sum += h
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// scheduledPhase is one workload phase awaiting its tick.
type scheduledPhase struct {
	name   string
	offset time.Duration
	run    func(ctx context.Context, info PhaseInfo) PhaseOutcome
}

// ScenarioRunner drives a testnet through a churn timeline as the root
// goroutine of the testnet's scheduler: it puts the timeline's liveness
// transitions on the event queue, runs the scheduled
// publish/retrieve/republish/refresh phases in timeline order, and
// samples router health plus the network-wide RPC budget at every tick.
type ScenarioRunner struct {
	TN    *testnet.Testnet
	TL    *churn.Timeline
	Start time.Time

	accels   []*routing.AcceleratedRouter
	ixFleet  *testnet.IndexerFleet
	indexers []*routing.Indexer // ixFleet's replicas, shard-major
	roots    []cid.Cid
	recs     []*telemetry.Recorder
	traces   []*telemetry.Trace

	phases  []scheduledPhase
	samples []PhaseSample
}

// NewScenarioRunner generates a churn timeline for the testnet's
// population, starting at the testnet's current virtual instant.
func NewScenarioRunner(tn *testnet.Testnet, cfg ScenarioConfig) *ScenarioRunner {
	start := tn.Sched.Now()
	tl := churn.GenerateTimeline(tn.Pop, churn.TimelineConfig{
		Start: start,
		// An hour of margin past the window: generated sessions clip at
		// the timeline end, so sampling liveness exactly at the final
		// tick would otherwise find an empty network.
		Duration:    cfg.Window + time.Hour,
		Seed:        cfg.Seed,
		Amplitude:   cfg.Amplitude,
		NATSessions: cfg.NATSessions,
	})
	return &ScenarioRunner{TN: tn, TL: tl, Start: start}
}

// ObserveAccelerated registers accelerated routers whose snapshot
// staleness the per-tick health sample averages.
func (s *ScenarioRunner) ObserveAccelerated(rs ...*routing.AcceleratedRouter) {
	for _, r := range rs {
		if r != nil {
			s.accels = append(s.accels, r)
		}
	}
}

// ObserveIndexers registers an indexer fleet: the shard map clients
// route by plus every replica. The runner GCs and gossips each online
// replica at every tick, health samples report replica availability,
// and a root only counts as covered when an online replica of its own
// shard holds the record.
func (s *ScenarioRunner) ObserveIndexers(f *testnet.IndexerFleet) {
	s.ixFleet = f
	s.indexers = f.Nodes()
}

// TrackRoots adds published roots to the indexer hit-rate denominator.
func (s *ScenarioRunner) TrackRoots(cs ...cid.Cid) { s.roots = append(s.roots, cs...) }

// ObserveTelemetry registers node recorders whose traces the runner
// drains at every tick: each phase sample reports span-derived columns
// (discover p99, first-hop share) over exactly the traces that phase
// produced, and the full set accumulates for Traces.
func (s *ScenarioRunner) ObserveTelemetry(recs ...*telemetry.Recorder) {
	for _, r := range recs {
		if r != nil {
			s.recs = append(s.recs, r)
		}
	}
}

// drainTraces empties every observed recorder's trace ring.
func (s *ScenarioRunner) drainTraces() []*telemetry.Trace {
	var out []*telemetry.Trace
	for _, r := range s.recs {
		out = append(out, r.Drain()...)
	}
	return out
}

// Traces returns every trace the observed recorders produced during
// the scheduled phases, in phase order.
func (s *ScenarioRunner) Traces() []*telemetry.Trace { return s.traces }

// Schedule adds a workload phase at the given offset into the window.
// Phases run in offset order (insertion order on ties) when Run is
// called; run may be nil for a pure sampling tick.
func (s *ScenarioRunner) Schedule(name string, offset time.Duration, run func(ctx context.Context, info PhaseInfo) PhaseOutcome) {
	s.phases = append(s.phases, scheduledPhase{name: name, offset: offset, run: run})
}

// Run executes the schedule as the root goroutine of the testnet's
// scheduler and returns the collected time series: phase boundaries are
// SleepUntil timer events, per-peer churn transitions are chained
// events registered by ScheduleTimeline, and indexer maintenance runs
// at each phase wake — everything on the one priority queue, with
// virtual time jumping between events, which is what lets paper-scale
// (20k+ peer) populations replay a full churn window in seconds of wall
// clock. A scheduler cannot be reused, so Run can only be called once.
func (s *ScenarioRunner) Run(ctx context.Context) []PhaseSample {
	sort.SliceStable(s.phases, func(a, b int) bool {
		return s.phases[a].offset < s.phases[b].offset
	})
	// Traces from setup work before the schedule (bootstrap publishes,
	// warm-up crawls) are not any phase's: drop them so the first
	// phase's span columns cover only its own operations.
	s.drainTraces()
	until := s.Start
	if n := len(s.phases); n > 0 {
		until = s.Start.Add(s.phases[n-1].offset)
	}
	sched := s.TN.Sched
	sched.Run(ctx, func(rctx context.Context) {
		// Transitions at a phase's exact instant fire before the phase's
		// timer wake: a peer churning offline at t is offline for the
		// phase scheduled at t (half-open churn intervals).
		s.TN.ScheduleTimeline(s.TL, s.Start, until)
		for _, ph := range s.phases {
			now := s.Start.Add(ph.offset)
			if sched.SleepUntil(rctx, now) != nil {
				return
			}
			s.runPhase(rctx, ph, now, s.TL.OnlineCount(now))
		}
	})
	return s.samples
}

// runPhase executes one phase at its tick — indexer background duties,
// the health sample, the workload, the trace drain and the budget row.
func (s *ScenarioRunner) runPhase(ctx context.Context, ph scheduledPhase, now time.Time, online int) {
	before := s.TN.Net.Budget()
	// Indexer background duties run between liveness and health
	// sampling, so a replica repaired by gossip counts as covered at
	// this tick and the gossip RPCs land in this phase's budget row.
	s.maintainIndexers(ctx)

	sample := PhaseSample{
		Phase:         ph.name,
		Offset:        ph.offset,
		Online:        online,
		SnapshotStale: s.SnapshotStaleness(),
		IndexerHit:    s.IndexerHitRate(),
		ShardHits:     s.ShardHitRates(),
		ReplicaUp:     s.ReplicaAvailability(),
	}
	if ph.run != nil {
		sample.PhaseOutcome = ph.run(ctx, PhaseInfo{
			Now:           now,
			Offset:        ph.offset,
			Online:        online,
			SnapshotStale: sample.SnapshotStale,
			IndexerHit:    sample.IndexerHit,
			LossRate:      s.TN.Net.Faults().LossRate,
			Partitioned:   len(s.TN.Net.PartitionedRegions()),
		})
	}
	// Fault state is sampled after the workload so a fault-transition
	// phase (loss->10%, partition, heal) reports the state it installed,
	// and the following workload ticks inherit it unchanged.
	sample.LossRate = s.TN.Net.Faults().LossRate
	sample.Partitioned = len(s.TN.Net.PartitionedRegions())
	phaseTraces := s.drainTraces()
	s.traces = append(s.traces, phaseTraces...)
	sample.TracedOps = len(phaseTraces)
	sample.FirstHopShare = telemetry.FirstHopShare(phaseTraces)
	if math.IsNaN(sample.FirstHopShare) {
		// No traced retrieval carried a discover span this phase; a
		// 0.00s p99 would read as a measurement, not an absence.
		sample.DiscoverP99 = math.NaN()
	} else {
		sample.DiscoverP99 = telemetry.DiscoverP99(phaseTraces).Seconds()
	}
	sample.Budget = s.TN.Net.Budget().Sub(before)
	s.samples = append(s.samples, sample)
}

// maintainIndexers runs the indexer background duties at a tick: every
// online observed indexer drops its expired records (so ProviderStore
// stays bounded by one TTL window of publishes) and pushes one
// anti-entropy gossip round to its replica group (so a replica that
// was offline for a publish window converges back to its shard).
// Offline indexers do neither — they are gone until the outage lifts.
func (s *ScenarioRunner) maintainIndexers(ctx context.Context) {
	for _, ix := range s.indexers {
		if !s.TN.Net.Online(ix.ID()) {
			continue
		}
		ix.GC()
		ix.Gossip(ctx)
	}
}

// Samples returns the time series collected so far.
func (s *ScenarioRunner) Samples() []PhaseSample { return s.samples }

// SnapshotStaleness returns the fraction of observed accelerated
// snapshot entries currently offline, or NaN when no router (or only
// empty snapshots) are registered.
func (s *ScenarioRunner) SnapshotStaleness() float64 {
	total, stale := 0, 0
	for _, r := range s.accels {
		for _, pi := range r.Snapshot() {
			total++
			if !s.TN.Net.Online(pi.ID) {
				stale++
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(stale) / float64(total)
}

// IndexerHitRate returns the fraction of tracked roots covered by the
// observed indexers — an online indexer responsible for the root's
// shard holding an unexpired record — or NaN when no indexer or no
// roots are registered. Expiry follows the scenario clock, so the rate
// decays as the staleness window outgrows the record TTL without a
// republish; availability follows the outage levers, so it also drops
// when a shard loses all its replicas.
func (s *ScenarioRunner) IndexerHitRate() float64 {
	if len(s.indexers) == 0 || len(s.roots) == 0 {
		return math.NaN()
	}
	hits := 0
	for _, c := range s.roots {
		if s.rootCovered(c) {
			hits++
		}
	}
	return float64(hits) / float64(len(s.roots))
}

// rootCovered reports whether some online replica of c's shard holds
// an unexpired record for it.
func (s *ScenarioRunner) rootCovered(c cid.Cid) bool {
	for _, ix := range s.ixFleet.Groups[s.ixFleet.Set.ShardOf(c)] {
		if s.TN.Net.Online(ix.ID()) && ix.HasProvider(c) {
			return true
		}
	}
	return false
}

// ShardHitRates returns the per-shard hit rate over tracked roots, or
// nil when fewer than two indexers (or no roots) are observed. Shards
// with no tracked roots report NaN.
func (s *ScenarioRunner) ShardHitRates() []float64 {
	if len(s.indexers) < 2 || len(s.roots) == 0 {
		return nil
	}
	shards := len(s.ixFleet.Groups)
	hits := make([]int, shards)
	counts := make([]int, shards)
	for _, c := range s.roots {
		sh := s.ixFleet.Set.ShardOf(c)
		counts[sh]++
		if s.rootCovered(c) {
			hits[sh]++
		}
	}
	out := make([]float64, shards)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = float64(hits[i]) / float64(counts[i])
		}
	}
	return out
}

// ReplicaAvailability returns the fraction of observed indexer
// replicas currently online, or NaN when none are observed.
func (s *ScenarioRunner) ReplicaAvailability() float64 {
	if len(s.indexers) == 0 {
		return math.NaN()
	}
	up := 0
	for _, ix := range s.indexers {
		if s.TN.Net.Online(ix.ID()) {
			up++
		}
	}
	return float64(up) / float64(len(s.indexers))
}

// fmtOffset renders a phase offset compactly ("+6h", "+90m", "+12h30m").
func fmtOffset(d time.Duration) string {
	d = d.Round(time.Minute)
	h := d / time.Hour
	m := (d % time.Hour) / time.Minute
	switch {
	case h == 0:
		return fmt.Sprintf("+%dm", m)
	case m == 0:
		return fmt.Sprintf("+%dh", h)
	default:
		return fmt.Sprintf("+%dh%02dm", h, m)
	}
}

// fmtSecs renders a span-derived duration in seconds, "-" for NaN.
func fmtSecs(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2fs", v)
}

// fmtHealth renders a health fraction as a percentage, "-" for NaN.
func fmtHealth(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*v)
}

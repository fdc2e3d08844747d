package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/gateway"
	"repro/internal/gwfleet"
	"repro/internal/gwload"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/transport"
)

// FleetScenarioConfig tunes the viral-CID flash-crowd scenario: a
// gateway fleet with consistent-hash placement, a shared cache tier
// and admission control, hit first by a steady Zipf workload and then
// by one CID at Multiplier times the steady request rate.
type FleetScenarioConfig struct {
	Gateways   int     // fleet size (default 4)
	Multiplier float64 // viral CID's arrival rate over the steady rate (default 100x)

	// OriginDir, when non-empty, backs the origin content host with a
	// pack-engine PackStore rooted there instead of an in-memory store.
	OriginDir string

	Seed int64
}

// The flash crowd's fixed shape: a 120-server origin network, a
// 150-object catalog of objects up to 128 KiB, and a 1 rps steady
// fleet-wide arrival rate measured over 3 min, then a 40 s burst.
const (
	fleetNetworkSize = 120
	fleetObjects     = 150
	fleetMaxObject   = 128 << 10
	fleetSteadyRPS   = 1
	fleetSteadyLen   = 3 * time.Minute
	fleetBurstLen    = 40 * time.Second

	// Small edges — a 256 KiB nginx cache and a 512 KiB LRU block store
	// per instance — so repeat traffic demonstrably falls through to the
	// fleet-shared tier instead of being absorbed per instance.
	fleetLocalCacheBytes   = 256 << 10
	fleetGatewayStoreBytes = 512 << 10

	// Admission control per gateway instance: a deliberately small
	// inflight bound so the 100x burst visibly sheds instead of herding
	// the origin.
	fleetMaxInflight, fleetQueueHigh, fleetQueueLow = 4, 4, 1
)

func (c FleetScenarioConfig) withDefaults() FleetScenarioConfig {
	if c.Gateways <= 0 {
		c.Gateways = 4
	}
	if c.Multiplier <= 0 {
		c.Multiplier = 100
	}
	if c.Seed == 0 {
		c.Seed = 23
	}
	return c
}

// FleetPhase is one measured phase of the flash-crowd scenario: the
// fleet tally delta, the replayer's sim-accurate TTFB sample, and the
// origin RPC spend (Bitswap wants + routing lookups) from the
// network-wide budget.
type FleetPhase struct {
	Name       string
	Stats      gwfleet.Stats
	TTFB       *stats.Sample // seconds, successful requests only
	OriginRPCs int64
}

// FleetScenarioResults holds the scenario outcome.
type FleetScenarioResults struct {
	Cfg    FleetScenarioConfig
	Phases []FleetPhase // steady, viral, cooldown
	Fleet  *gwfleet.Fleet
	Stats  gwfleet.Stats // whole-run tally

	// RequestAmp is the viral phase's request-rate multiple of the
	// steady phase; OriginRPCAmp is the same ratio for origin RPCs.
	// Sub-linear amplification — the fleet's job — is OriginRPCAmp well
	// under RequestAmp.
	RequestAmp   float64
	OriginRPCAmp float64

	SchedStalls int64
	SchedEvents int64
	Samples     []PhaseSample
}

// errFleetFetch marks a request the fleet could not answer with
// content (shed or origin failure) for the replayer's failure count.
var errFleetFetch = errors.New("experiments: fleet request not served")

// RunFleetScenario builds a testnet, publishes a catalog
// from a pack-engine origin host, stands up a gateway fleet over a
// shared block cache, and replays a steady phase, a 100x viral-CID
// burst and a cooldown through the fleet — measuring per-phase TTFB,
// cache-tier hits and origin RPC amplification.
func RunFleetScenario(cfg FleetScenarioConfig) *FleetScenarioResults {
	cfg = cfg.withDefaults()

	cat := gwload.NewCatalog(gwload.CatalogConfig{
		NumObjects: fleetObjects, Seed: cfg.Seed, MaxSize: fleetMaxObject,
	})

	tn := testnet.Build(testnet.Config{
		N: fleetNetworkSize, Seed: cfg.Seed + 1,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})

	// The origin content host: every catalog object lives here, served
	// from a pack-engine store when OriginDir is set.
	var originStore block.Store
	if cfg.OriginDir != "" {
		ps, err := block.NewPackStore(cfg.OriginDir, block.PackConfig{})
		if err != nil {
			panic(err)
		}
		defer ps.Close()
		originStore = ps
	}
	origin := tn.AddVantageStore("US", cfg.Seed+2, originStore)

	// The fleet: small edge instances (bounded nginx cache + bounded LRU
	// block store each) over the big fleet-shared tier.
	gwNodes := tn.AddGatewayFleet(cfg.Gateways, cfg.Seed+10, func(int) block.Store {
		return block.NewLRUStore(fleetGatewayStoreBytes)
	})
	reg := telemetry.NewRegistry()
	fleet := gwfleet.New(gwNodes, gwfleet.Config{
		LocalCacheBytes: fleetLocalCacheBytes,
		MaxInflight:     fleetMaxInflight,
		QueueHigh:       fleetQueueHigh,
		QueueLow:        fleetQueueLow,
		Time:            tn.Sched,
		Registry:        reg,
	})

	res := &FleetScenarioResults{Cfg: cfg, Fleet: fleet}
	cids := make([]cid.Cid, fleetObjects)

	sc := NewScenarioRunner(tn, ScenarioConfig{
		Window: 20 * time.Minute,
		// A flash crowd is a fleet problem, not a churn problem: keep
		// the origin network quiet so amplification is attributable to
		// the caches and admission control alone.
		Amplitude: 0.01,
		Seed:      cfg.Seed + 3,
	})

	// Phase 0: the origin host materializes and publishes the catalog.
	sc.Schedule("publish", 0, func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
		var out PhaseOutcome
		rng := rand.New(rand.NewSource(cfg.Seed + 4))
		origin.DHT().PublishPeerRecord(transport.WithRPCCategory(ctx, transport.CatPublish))
		for i, obj := range cat.Objects {
			data := make([]byte, obj.Size)
			rng.Read(data)
			pub, err := origin.AddAndPublish(ctx, data)
			out.Ops++
			if err != nil {
				out.Failures++
				continue
			}
			cids[i] = pub.Cid
		}
		return out
	})

	// The replayed workload: every request goes through the fleet's
	// consistent-hash front door on the scheduler's virtual clock.
	do := func(ctx context.Context, r gwload.Request) error {
		resp := fleet.Fetch(ctx, gateway.Request{
			Cid:      cids[r.Object],
			Time:     tn.Sched.Now(),
			Country:  r.Country,
			UserID:   r.UserID,
			Referrer: r.Referrer,
		})
		if resp.Shed || resp.Err != nil {
			return errFleetFetch
		}
		return nil
	}
	viral := gwload.ViralObject(cat)
	measure := func(name string, offset time.Duration, gen func(start time.Time) []gwload.Request) {
		sc.Schedule(name, offset, func(ctx context.Context, _ PhaseInfo) PhaseOutcome {
			before := fleet.Stats()
			budgetBefore := tn.Net.Budget()
			// Anchor the trace on the actual clock, not the nominal phase
			// offset: when an earlier phase overran its slot, nominal
			// timestamps would all be in the past and the whole trace
			// would fire at once instead of at its arrival rate.
			rs := gwload.Replay(ctx, tn.Sched, gen(tn.Sched.Now()), do)
			budget := tn.Net.Budget().Sub(budgetBefore)
			res.Phases = append(res.Phases, FleetPhase{
				Name:       name,
				Stats:      fleet.Stats().Sub(before),
				TTFB:       rs.TTFB(),
				OriginRPCs: budget.Category(transport.CatWant) + budget.Category(transport.CatLookup),
			})
			return PhaseOutcome{Ops: rs.Requests(), Failures: rs.Failures()}
		})
	}

	// Phase 1, +2m: steady-state Zipf traffic warms the cache tiers.
	measure("steady", 2*time.Minute, func(start time.Time) []gwload.Request {
		return gwload.GenerateFlashCrowd(cat, gwload.FlashCrowdConfig{
			Start: start, Duration: fleetSteadyLen, SteadyRPS: fleetSteadyRPS,
			BurstMultiplier: 1, Seed: cfg.Seed + 5,
		})
	})

	// Phase 2: one CID at Multiplier x the steady fleet-wide rate, on
	// top of the steady background.
	measure("viral", 2*time.Minute+fleetSteadyLen+time.Minute, func(start time.Time) []gwload.Request {
		return gwload.GenerateFlashCrowd(cat, gwload.FlashCrowdConfig{
			Start: start, Duration: fleetBurstLen, SteadyRPS: fleetSteadyRPS,
			BurstStart: time.Second, BurstDuration: fleetBurstLen - time.Second,
			BurstMultiplier: cfg.Multiplier, ViralObject: viral,
			Seed: cfg.Seed + 6,
		})
	})

	// Phase 3: steady traffic again — the crowd is gone, the caches are
	// hot.
	measure("cooldown", 2*time.Minute+fleetSteadyLen+time.Minute+fleetBurstLen+time.Minute,
		func(start time.Time) []gwload.Request {
			return gwload.GenerateFlashCrowd(cat, gwload.FlashCrowdConfig{
				Start: start, Duration: fleetSteadyLen / 3, SteadyRPS: fleetSteadyRPS,
				BurstMultiplier: 1, Seed: cfg.Seed + 7,
			})
		})

	res.Samples = sc.Run(context.Background())
	res.Stats = fleet.Stats()
	res.SchedStalls = tn.Sched.Stalls()
	res.SchedEvents = tn.Sched.Dispatched()

	if len(res.Phases) >= 2 {
		steady, burst := res.Phases[0], res.Phases[1]
		steadySecs := fleetSteadyLen.Seconds()
		burstSecs := fleetBurstLen.Seconds()
		if steady.Stats.Requests > 0 && steadySecs > 0 && burstSecs > 0 {
			res.RequestAmp = (float64(burst.Stats.Requests) / burstSecs) /
				(float64(steady.Stats.Requests) / steadySecs)
		}
		if steady.OriginRPCs > 0 {
			res.OriginRPCAmp = (float64(burst.OriginRPCs) / burstSecs) /
				(float64(steady.OriginRPCs) / steadySecs)
		}
	}
	return res
}

// Report renders the scenario as a stable table: per-phase request and
// tier tallies with sim-accurate TTFB, then the fleet-level verdicts
// the acceptance gates pin (cache hit rate, amplification, stalls).
func (r *FleetScenarioResults) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Viral-CID flash crowd: %d gateways, consistent-hash placement, shared cache tier\n",
		r.Cfg.Gateways)
	t := stats.NewTable("Phase", "Reqs", "Shed", "Spill", "Nginx", "Shared", "Store", "Origin", "p50 TTFB", "p99 TTFB", "Origin RPCs")
	for _, ph := range r.Phases {
		s := ph.Stats
		t.AddRow(ph.Name, s.Requests, s.Shed, s.Spilled, s.LocalHits, s.SharedHits,
			s.NodeStore, s.OriginFetch,
			fmt.Sprintf("%.3fs", ph.TTFB.Percentile(50)),
			fmt.Sprintf("%.3fs", ph.TTFB.Percentile(99)),
			ph.OriginRPCs)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "fleet cache hit rate: %.3f\n", r.Stats.CacheHitRate())
	fmt.Fprintf(&b, "request amplification: %.1fx, origin RPC amplification: %.1fx\n",
		r.RequestAmp, r.OriginRPCAmp)
	fmt.Fprintf(&b, "scheduler stalls: %d\n", r.SchedStalls)
	return b.String()
}

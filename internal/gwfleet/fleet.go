// Package gwfleet scales the single HTTP gateway of §3.4 to a fleet:
// consistent-hash request placement over N gateway instances (Ring), a
// fleet-shared cache (SharedCache: assembled objects, provider records,
// and negative entries for known-missing CIDs), and admission control
// that sheds excess load with 503 + Retry-After instead of letting a
// flash crowd melt the origin.
//
// The fleet has no serving cascade of its own. It contributes two
// gateway.CacheTier values, the shared object cache and the negative
// cache, to each instance's gateway, which walks them between its node
// store and the P2P origin; Fleet.serve is one Fetch call plus the
// fleet's tally. The provider cache sits below the cascade, behind
// CachingRouter.
//
// All fleet metrics report through the internal/telemetry registry; the
// viral-CID scenario in internal/experiments measures the fleet against
// the paper's Table 5 gateway tiers at 100x steady-state load.
package gwfleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// SharedCacheLatency models the intra-fleet hop to the shared cache
// tier: one LAN round trip, far below the node-store tier's 8 ms.
const SharedCacheLatency = 2 * time.Millisecond

// ErrKnownMissing marks a request answered from the negative cache:
// the origin definitively failed for this CID inside the current TTL
// window, so the fleet fails fast without another origin lookup.
var ErrKnownMissing = errors.New("gwfleet: CID known missing (negative cache)")

// ErrShed marks a request rejected by admission control.
var ErrShed = errors.New("gwfleet: shed (fleet over capacity)")

// spill is how many ring successors a request may overflow to when
// the owning instance is shedding.
const spill = 1

// providerTTL bounds the shared provider-record cache.
const providerTTL = 10 * time.Minute

// Config tunes a Fleet.
type Config struct {
	// LocalCacheBytes bounds each instance's nginx cache (default 64 MiB).
	LocalCacheBytes int64
	// SharedCacheBytes bounds the fleet-shared object cache (default 256 MiB).
	SharedCacheBytes int64
	// NegativeTTL bounds how long a known-missing CID is refused without
	// consulting the origin (default 1 min).
	NegativeTTL time.Duration
	// MaxInflight is the per-instance concurrent-request bound; requests
	// beyond it count as queued (default 32).
	MaxInflight int
	// QueueHigh and QueueLow are the queue-depth watermarks: shedding
	// starts when an instance's queue depth reaches QueueHigh and stops
	// once it drains to QueueLow (defaults 16 / 4).
	QueueHigh, QueueLow int
	// RetryAfter is the advisory client backoff attached to shed
	// responses (default 1 s).
	RetryAfter time.Duration
	// Time is the unified time surface (the event scheduler in
	// simulated scenarios). Nil selects real time.
	Time simtime.Source
	// Registry receives the fleet metrics; nil leaves them unmetered.
	Registry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.LocalCacheBytes <= 0 {
		c.LocalCacheBytes = 64 << 20
	}
	if c.SharedCacheBytes <= 0 {
		c.SharedCacheBytes = 256 << 20
	}
	if c.NegativeTTL <= 0 {
		c.NegativeTTL = time.Minute
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.QueueHigh <= 0 {
		c.QueueHigh = 16
	}
	if c.QueueLow <= 0 {
		c.QueueLow = 4
	}
	if c.QueueLow >= c.QueueHigh {
		c.QueueLow = c.QueueHigh / 2
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	c.Time = simtime.OrWall(c.Time)
	return c
}

// Response is the fleet-level serving outcome: the underlying gateway
// response plus which instance served, whether the request spilled past
// a shedding owner, and the shed verdict.
type Response struct {
	gateway.Response
	// GW is the instance that served (or, when Shed, the owner that
	// rejected last).
	GW int
	// Spilled marks a response served by a ring successor because the
	// owner was shedding.
	Spilled bool
	// Shed marks a rejected request: every candidate instance was over
	// its watermarks. HTTP callers get 503 with Retry-After.
	Shed bool
	// RetryAfter is the advisory backoff attached when Shed.
	RetryAfter time.Duration
	// Object is the served object for successful responses.
	Object gateway.Object
}

// instance is one gateway plus its admission-control state.
type instance struct {
	gw       *gateway.Gateway
	inflight atomic.Int64
	shedding atomic.Bool

	requests *telemetry.Counter
	shed     *telemetry.Counter
}

// Fleet is a consistent-hash gateway fleet over N instances sharing
// one cache tier.
type Fleet struct {
	cfg    Config
	ring   *Ring
	insts  []*instance
	shared *SharedCache

	tierHits map[gateway.Tier]*telemetry.Counter
	negCtr   *telemetry.Counter
	spillCtr *telemetry.Counter
	shedCtr  *telemetry.Counter
	ttfbHist *telemetry.Hist

	// deterministic scenario-facing tallies (the registry mirrors them)
	nReq, nShed, nSpill, nNeg, nNetFail atomic.Int64
	served                              [gateway.TierShared + 1]atomic.Int64 // by answering Tier
}

// New builds a fleet over the given gateway nodes: each node gets a
// gateway instance with its own nginx cache, its content router is
// wrapped with the fleet's shared provider cache, and the placement
// ring spans all instances.
func New(nodes []*core.Node, cfg Config) *Fleet {
	if len(nodes) == 0 {
		panic("gwfleet: fleet over zero nodes")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	shared := NewSharedCache(cfg.SharedCacheBytes, cfg.NegativeTTL, providerTTL, cfg.Time, reg)
	f := &Fleet{
		cfg:    cfg,
		ring:   NewRing(len(nodes), DefaultVNodes),
		shared: shared,
		tierHits: map[gateway.Tier]*telemetry.Counter{
			gateway.TierNginx:     reg.Counter("gwfleet_served", "tier", "nginx"),
			gateway.TierNodeStore: reg.Counter("gwfleet_served", "tier", "nodestore"),
			gateway.TierShared:    reg.Counter("gwfleet_served", "tier", "shared"),
			gateway.TierNetwork:   reg.Counter("gwfleet_served", "tier", "origin"),
		},
		negCtr:   reg.Counter("gwfleet_served", "tier", "negative"),
		spillCtr: reg.Counter("gwfleet_spills"),
		shedCtr:  reg.Counter("gwfleet_shed_total"),
		ttfbHist: reg.Histogram("gwfleet_ttfb_seconds"),
	}
	reg.Gauge("gwfleet_gateways").Set(float64(len(nodes)))
	for i, n := range nodes {
		n.SetRouter(NewCachingRouter(n.Router(), shared))
		f.insts = append(f.insts, &instance{
			gw:       gateway.New(n, cfg.LocalCacheBytes, cfg.Time, objectTier{shared}, negativeTier{shared}),
			requests: reg.Counter("gwfleet_requests", "gw", fmt.Sprint(i)),
			shed:     reg.Counter("gwfleet_shed", "gw", fmt.Sprint(i)),
		})
	}
	return f
}

// Size returns the instance count.
func (f *Fleet) Size() int { return len(f.insts) }

// Shared exposes the fleet cache tier.
func (f *Fleet) Shared() *SharedCache { return f.shared }

// Gateway returns instance i's gateway: its access log feeds the Table
// 5 style summaries, its Node is the instance's backing node.
func (f *Fleet) Gateway(i int) *gateway.Gateway { return f.insts[i].gw }

// Fetch serves one request: the CID's ring owner first, spilling to up
// to spill ring successors while the owner sheds, rejecting with
// Shed when every candidate is over its watermarks.
func (f *Fleet) Fetch(ctx context.Context, req gateway.Request) Response {
	f.nReq.Add(1)
	candidates := f.ring.Successors(req.Key(), 1+spill)
	for hop, gwIdx := range candidates {
		inst := f.insts[gwIdx]
		release, ok := f.admit(inst)
		if !ok {
			inst.shed.Inc()
			continue
		}
		resp := f.serve(ctx, inst, gwIdx, req)
		release()
		resp.Spilled = hop > 0
		if resp.Spilled {
			f.nSpill.Add(1)
			f.spillCtr.Inc()
		}
		return resp
	}
	f.nShed.Add(1)
	f.shedCtr.Inc()
	return Response{
		Response:   gateway.Response{Err: ErrShed},
		GW:         candidates[0],
		Shed:       true,
		RetryAfter: f.cfg.RetryAfter,
	}
}

// admit applies the per-instance admission control: requests beyond
// MaxInflight count as queue depth; depth >= QueueHigh turns shedding
// on, and it stays on (hysteresis) until depth drains to QueueLow.
func (f *Fleet) admit(inst *instance) (release func(), ok bool) {
	n := inst.inflight.Add(1)
	queued := n - int64(f.cfg.MaxInflight)
	switch {
	case queued >= int64(f.cfg.QueueHigh):
		inst.shedding.Store(true)
	case queued <= int64(f.cfg.QueueLow):
		inst.shedding.Store(false)
	}
	if queued > 0 && inst.shedding.Load() {
		inst.inflight.Add(-1)
		return nil, false
	}
	return func() { inst.inflight.Add(-1) }, true
}

// serve runs one admitted instance's cascade (its nginx cache and node
// store, the fleet-shared object cache, the negative cache, then the
// P2P origin) and tallies the outcome under the tier the cascade named.
func (f *Fleet) serve(ctx context.Context, inst *instance, gwIdx int, req gateway.Request) Response {
	inst.requests.Inc()
	resp, obj := inst.gw.Fetch(ctx, req)
	switch {
	case errors.Is(resp.Err, ErrKnownMissing):
		f.nNeg.Add(1)
		f.negCtr.Inc()
	case resp.Err != nil:
		f.nNetFail.Add(1)
		// Only a root-level origin failure is a definitive miss worth a
		// negative window; a bad sub-path under a resolvable root is the
		// client's problem, not the content's absence.
		if req.Path == "" {
			f.shared.NoteMissing(req.Cid)
		}
	default:
		if resp.Tier == gateway.TierNginx || resp.Tier == gateway.TierNodeStore {
			// The instance-local tiers only report their modelled latency
			// (0 nginx, 8 ms node store). Spending it keeps fleet TTFB true
			// to the tier model and holds the admission slot as long.
			spend(ctx, f.cfg.Time, resp.Latency)
		}
		f.served[resp.Tier].Add(1)
		f.tierHits[resp.Tier].Inc()
		f.ttfbHist.ObserveDuration(resp.Latency)
	}
	return Response{Response: resp, GW: gwIdx, Object: obj}
}

// Stats is a point-in-time tally of fleet behaviour.
type Stats struct {
	Requests     int64 // all Fetch calls
	Shed         int64 // rejected by admission control
	Spilled      int64 // served by a ring successor
	LocalHits    int64 // per-instance nginx hits
	SharedHits   int64 // fleet shared-cache hits
	NodeStore    int64 // pinned node-store hits
	OriginFetch  int64 // successful P2P retrievals
	OriginFail   int64 // failed P2P retrievals
	NegativeHits int64 // fail-fasts from the negative cache
}

// Sub returns the tally delta since prev — scenario phases bracket
// their workload with Stats calls to report per-phase behaviour.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Requests:     s.Requests - prev.Requests,
		Shed:         s.Shed - prev.Shed,
		Spilled:      s.Spilled - prev.Spilled,
		LocalHits:    s.LocalHits - prev.LocalHits,
		SharedHits:   s.SharedHits - prev.SharedHits,
		NodeStore:    s.NodeStore - prev.NodeStore,
		OriginFetch:  s.OriginFetch - prev.OriginFetch,
		OriginFail:   s.OriginFail - prev.OriginFail,
		NegativeHits: s.NegativeHits - prev.NegativeHits,
	}
}

// Served counts requests answered with content.
func (s Stats) Served() int64 { return s.LocalHits + s.SharedHits + s.NodeStore + s.OriginFetch }

// CacheHitRate is the fraction of content-answered requests that never
// touched the P2P origin — the fleet-level Table 5 "cached" share.
func (s Stats) CacheHitRate() float64 {
	served := s.Served()
	if served == 0 {
		return 0
	}
	return float64(served-s.OriginFetch) / float64(served)
}

// Stats returns the current tallies.
func (f *Fleet) Stats() Stats {
	return Stats{
		Requests:     f.nReq.Load(),
		Shed:         f.nShed.Load(),
		Spilled:      f.nSpill.Load(),
		LocalHits:    f.served[gateway.TierNginx].Load(),
		SharedHits:   f.served[gateway.TierShared].Load(),
		NodeStore:    f.served[gateway.TierNodeStore].Load(),
		OriginFetch:  f.served[gateway.TierNetwork].Load(),
		OriginFail:   f.nNetFail.Load(),
		NegativeHits: f.nNeg.Load(),
	}
}

// ServeHTTP implements the fleet's public HTTP face — the same
// GET /ipfs/{CID}[/path] surface as a single gateway, with shed
// requests answered 503 + Retry-After. As there, a client that goes
// away cancels nothing.
func (f *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, ok := gateway.ParseRequest(w, r, f.cfg.Time.Now())
	if !ok {
		return
	}
	resp := f.Fetch(context.WithoutCancel(r.Context()), req)
	if resp.Shed {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(resp.RetryAfter.Seconds()+0.5)))
		http.Error(w, "fleet over capacity, retry later", http.StatusServiceUnavailable)
		return
	}
	if resp.Err == nil {
		w.Header().Set("X-Ipfs-Fleet-Gw", fmt.Sprint(resp.GW))
	}
	gateway.WriteResponse(w, resp.Response, resp.Object)
}

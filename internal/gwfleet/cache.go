package gwfleet

import (
	"context"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/gateway"
	"repro/internal/lru"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// SharedCache is the fleet-wide cache tier every gateway instance
// consults between its own nginx cache and the P2P origin. It holds
// three maps with distinct jobs:
//
//   - objects: a byte-bounded LRU over served objects (leaf lists
//     shared with the node store), so a fetch paid by one instance
//     serves the whole fleet;
//   - providers: provider records learned by past retrievals, with a
//     TTL, so repeat retrievals skip the routing lookup entirely (the
//     lookup half of origin RPC amplification);
//   - negative: CIDs the origin definitively failed to resolve, with a
//     TTL, so a flood of requests for missing content costs the fleet
//     exactly one origin lookup per TTL window. A publish for the CID
//     invalidates the entry immediately (Invalidate).
//
// All methods are safe for concurrent use; expiry is judged against the
// simulated clock so event-driven scenarios age entries correctly.
type SharedCache struct {
	src simtime.Source

	objects *lru.Cache[gateway.Object]

	mu        sync.Mutex
	negative  map[string]time.Time // CID key -> expiry
	providers map[string]provEntry // CID key -> providers + expiry

	negTTL  time.Duration
	provTTL time.Duration

	objHits, objMisses *telemetry.Counter
	negHits            *telemetry.Counter
	provHits           *telemetry.Counter
}

type provEntry struct {
	infos  []wire.PeerInfo
	expiry time.Time
}

// NewSharedCache builds the shared tier (Config.withDefaults and
// providerTTL hold the default sizes and TTLs); reg may be nil for an
// unmetered cache.
func NewSharedCache(capacityBytes int64, negTTL, provTTL time.Duration, src simtime.Source, reg *telemetry.Registry) *SharedCache {
	return &SharedCache{
		src:       src,
		objects:   lru.New[gateway.Object](capacityBytes),
		negative:  make(map[string]time.Time),
		providers: make(map[string]provEntry),
		negTTL:    negTTL,
		provTTL:   provTTL,
		objHits:   reg.Counter("gwfleet_shared_object", "result", "hit"),
		objMisses: reg.Counter("gwfleet_shared_object", "result", "miss"),
		negHits:   reg.Counter("gwfleet_negative_hits"),
		provHits:  reg.Counter("gwfleet_provider_hits"),
	}
}

// KnownMissing reports whether c is inside a negative-cache window:
// the origin failed to resolve it recently and no publish has
// invalidated the entry since.
func (c *SharedCache) KnownMissing(root cid.Cid) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	exp, ok := c.negative[root.Key()]
	if !ok {
		return false
	}
	if c.src.Now().After(exp) {
		delete(c.negative, root.Key())
		return false
	}
	c.negHits.Inc()
	return true
}

// NoteMissing records a definitive origin miss for root, opening a
// negative-cache window of the configured TTL.
func (c *SharedCache) NoteMissing(root cid.Cid) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	c.negative[root.Key()] = c.src.Now().Add(c.negTTL)
}

// Invalidate drops the negative entry for root — called when the fleet
// learns the content now exists (a publish or a pin), so availability
// is not delayed by a stale window.
func (c *SharedCache) Invalidate(root cid.Cid) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.negative, root.Key())
}

// Providers returns unexpired cached provider records for root.
func (c *SharedCache) Providers(root cid.Cid) []wire.PeerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.providers[root.Key()]
	if !ok {
		return nil
	}
	if c.src.Now().After(e.expiry) {
		delete(c.providers, root.Key())
		return nil
	}
	c.provHits.Inc()
	return e.infos
}

// PutProviders caches provider records learned from a lookup or a
// successful retrieval.
func (c *SharedCache) PutProviders(root cid.Cid, infos []wire.PeerInfo) {
	if len(infos) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	c.providers[root.Key()] = provEntry{
		infos:  append([]wire.PeerInfo(nil), infos...),
		expiry: c.src.Now().Add(c.provTTL),
	}
}

// sweepLocked drops expired negative/provider entries once the maps
// grow past a bound, keeping memory proportional to the live set.
func (c *SharedCache) sweepLocked() {
	const sweepAt = 4096
	if len(c.negative)+len(c.providers) < sweepAt {
		return
	}
	now := c.src.Now()
	for k, exp := range c.negative {
		if now.After(exp) {
			delete(c.negative, k)
		}
	}
	for k, e := range c.providers {
		if now.After(e.expiry) {
			delete(c.providers, k)
		}
	}
}

// objectTier is the shared object cache as a stage of every instance's
// serving cascade, between the instance's own tiers and the negative
// cache. A hit costs one intra-fleet hop.
type objectTier struct{ c *SharedCache }

func (objectTier) Tier() gateway.Tier { return gateway.TierShared }

func (t objectTier) Get(ctx context.Context, req gateway.Request) (gateway.Object, time.Duration, error) {
	obj, ok := t.c.objects.Get(req.Key())
	if !ok {
		t.c.objMisses.Inc()
		return nil, 0, gateway.ErrMiss
	}
	t.c.objHits.Inc()
	// The hop is spent here, before the cascade fills the instance's
	// nginx cache: until it has elapsed the object is not local.
	spend(ctx, t.c.src, SharedCacheLatency)
	return obj, SharedCacheLatency, nil
}

func (t objectTier) Put(req gateway.Request, obj gateway.Object) {
	t.c.objects.Put(req.Key(), obj, int64(obj.Len()))
}

// negativeTier is the negative cache as the last stage before the P2P
// origin: inside a known-missing window it ends the walk with
// ErrKnownMissing. The cascade offers tiers only objects, so the window
// is opened by Fleet.serve when the origin fails.
type negativeTier struct{ c *SharedCache }

func (negativeTier) Tier() gateway.Tier { return gateway.TierNetwork }

func (t negativeTier) Get(_ context.Context, req gateway.Request) (gateway.Object, time.Duration, error) {
	if t.c.KnownMissing(req.Cid) {
		return nil, 0, ErrKnownMissing
	}
	return nil, 0, gateway.ErrMiss
}

func (negativeTier) Put(gateway.Request, gateway.Object) {}

// spend parks for a modelled latency, on a simulated clock only: a
// daemon on the wall clock reports the model in Response.Latency
// without throttling real clients to it.
func spend(ctx context.Context, src simtime.Source, d time.Duration) {
	if simtime.SchedulerOf(src) != nil {
		src.Sleep(ctx, d)
	}
}

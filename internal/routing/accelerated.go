package routing

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/crawler"
	"repro/internal/kbucket"
	"repro/internal/swarm"
	"repro/internal/wire"
)

// AcceleratedConfig tunes the full-routing-table client.
type AcceleratedConfig struct {
	// K is the replication factor / direct-query breadth (default 20).
	K int
	// Parallelism bounds concurrent direct lookup RPCs (default 3,
	// matching the walk's α so message counts compare fairly).
	Parallelism int
	// RPCTimeout bounds one direct RPC (default 10 s).
	RPCTimeout time.Duration
}

// crawlWorkers bounds the snapshot crawl's concurrency.
const crawlWorkers = 64

func (c AcceleratedConfig) withDefaults() AcceleratedConfig {
	if c.K <= 0 {
		c.K = kbucket.DefaultK
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 3
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	return c
}

// snapEntry is one peer in the network snapshot with its precomputed
// keyspace position.
type snapEntry struct {
	info wire.PeerInfo
	key  kbucket.Key
}

// AcceleratedRouter is the accelerated DHT client: it periodically
// crawls the whole network into a snapshot and then serves provides and
// lookups in a single hop against the K peers closest to the key,
// skipping the multi-hop walk the paper identifies as the dominant
// delay (§6.1–6.2). A stale snapshot degrades gracefully: dead entries
// are skipped, and when every direct path fails the router falls back
// to the iterative walk.
type AcceleratedRouter struct {
	oneHop
	cfg AcceleratedConfig

	mu   sync.RWMutex
	snap []snapEntry
}

// NewAccelerated creates an accelerated client over the swarm, running
// on the swarm's time source. fallback handles keys the snapshot cannot
// serve; pass nil to fail instead.
func NewAccelerated(sw *swarm.Swarm, fallback Router, cfg AcceleratedConfig) *AcceleratedRouter {
	cfg = cfg.withDefaults()
	return &AcceleratedRouter{oneHop: newOneHop(KindAccelerated, sw, cfg.RPCTimeout, fallback), cfg: cfg}
}

// Refresh crawls the network from the bootstrap peers and replaces the
// snapshot with every dialable peer found. It returns the snapshot
// size.
func (r *AcceleratedRouter) Refresh(ctx context.Context, bootstrap []wire.PeerInfo) (int, error) {
	cr := crawler.New(r.sw, crawler.Config{
		Workers:        crawlWorkers,
		ConnectTimeout: r.timeout,
	})
	rep := cr.Crawl(ctx, bootstrap)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var snap []snapEntry
	for _, obs := range rep.Observations {
		if !obs.Dialable || len(obs.Addrs) == 0 || obs.ID == r.sw.Local() {
			continue
		}
		snap = append(snap, snapEntry{
			info: wire.PeerInfo{ID: obs.ID, Addrs: obs.Addrs},
			key:  kbucket.KeyForPeer(obs.ID),
		})
	}
	if len(snap) == 0 {
		return 0, fmt.Errorf("routing: accelerated refresh: crawl from %d bootstrap peers found no dialable peers", len(bootstrap))
	}
	r.mu.Lock()
	r.snap = snap
	r.mu.Unlock()
	return len(snap), nil
}

// SetSnapshot installs a snapshot directly — testnet builders use it to
// model an already-converged client without paying for a crawl.
func (r *AcceleratedRouter) SetSnapshot(infos []wire.PeerInfo) {
	snap := make([]snapEntry, 0, len(infos))
	for _, info := range infos {
		if info.ID == r.sw.Local() {
			continue
		}
		snap = append(snap, snapEntry{info: info, key: kbucket.KeyForPeer(info.ID)})
	}
	r.mu.Lock()
	r.snap = snap
	r.mu.Unlock()
}

// SnapshotSize returns how many peers the current snapshot holds.
func (r *AcceleratedRouter) SnapshotSize() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.snap)
}

// Snapshot returns the peers the current snapshot holds. Health probes
// compare it against live network state to measure how stale the
// one-hop view has become under churn.
func (r *AcceleratedRouter) Snapshot() []wire.PeerInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]wire.PeerInfo, len(r.snap))
	for i, e := range r.snap {
		out[i] = e.info
	}
	return out
}

// closest returns the K snapshot peers nearest the key. It uses the
// keyspace positions precomputed at snapshot time and a bounded
// insertion (O(n·log K), no full copy or sort) — at the 20k-peer
// snapshots the accelerated client exists for, re-hashing or fully
// sorting per lookup would dominate the hot path.
func (r *AcceleratedRouter) closest(key []byte) []wire.PeerInfo {
	target := kbucket.KeyForBytes(key)
	type cand struct {
		dist kbucket.Key
		info wire.PeerInfo
	}
	r.mu.RLock()
	best := make([]cand, 0, r.cfg.K) // ascending by distance
	for _, e := range r.snap {
		d := kbucket.XOR(e.key, target)
		if len(best) == r.cfg.K && !kbucket.Less(d, best[len(best)-1].dist) {
			continue
		}
		i := sort.Search(len(best), func(j int) bool { return kbucket.Less(d, best[j].dist) })
		if len(best) < r.cfg.K {
			best = append(best, cand{})
		}
		copy(best[i+1:], best[i:])
		best[i] = cand{dist: d, info: e.info}
	}
	r.mu.RUnlock()
	out := make([]wire.PeerInfo, 0, len(best))
	for _, b := range best {
		out = append(out, b.info)
	}
	return out
}

// Provide implements Router: store the provider record directly on the
// K snapshot peers closest to the key — no walk, only a store-batch —
// falling back to the walk when every target fails.
func (r *AcceleratedRouter) Provide(ctx context.Context, c cid.Cid) (ProvideResult, error) {
	return r.provide(ctx, c, r.closest(c.Bytes()))
}

// ProvideMany implements Router: batch the CIDs against the snapshot's
// K-closest sets and retry CIDs the snapshot could not land anywhere
// through the fallback walk.
func (r *AcceleratedRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (ProvideManyResult, error) {
	return r.provideMany(ctx, cids, r.SnapshotSize() > 0,
		func(c cid.Cid) []wire.PeerInfo { return r.closest(c.Bytes()) })
}

// FindProvidersStream implements Router: the one-hop snapshot lookup,
// yielding the winning response's providers, chained into the fallback
// walk's stream when the snapshot neighbourhood is exhausted.
func (r *AcceleratedRouter) FindProvidersStream(ctx context.Context, c cid.Cid) ProviderSeq {
	return streamWithFallback(ctx, r.lookup, r.fallback, c)
}

// SessionPeers implements Router: the same one-hop snapshot lookup as
// FindProviders, without the walk fallback — a session candidate miss
// costs Bitswap nothing but the direct RPCs, and the caller decides
// whether to broadcast or walk next.
func (r *AcceleratedRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	return sessionFromLookup(ctx, r.lookup, c, n)
}

// lookup asks the snapshot neighbourhood and stops at the first
// provider batch. The snapshot tells exactly which peers a one-hop
// provide stored on, so the closest peer alone answers the common
// case; the lookup widens to Parallelism peers a wave only when the
// neighbourhood turns out stale.
func (r *AcceleratedRouter) lookup(ctx context.Context, c cid.Cid, yield func([]wire.PeerInfo) bool) {
	r.ask(ctx, "accel-direct", c, r.closest(c.Bytes()), r.cfg.Parallelism, func(batch []wire.PeerInfo) bool {
		yield(batch)
		return false
	})
}

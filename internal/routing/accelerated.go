package routing

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/crawler"
	"repro/internal/dht"
	"repro/internal/kbucket"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/telemetry"
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
	// CrawlWorkers bounds the snapshot crawl's concurrency (default 64).
	CrawlWorkers int
}

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
	if c.CrawlWorkers <= 0 {
		c.CrawlWorkers = 64
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
	cfg      AcceleratedConfig
	sw       *swarm.Swarm
	src      simtime.Source // the swarm's
	fallback Router         // nil disables fallback (tests); usually a DHTRouter
	ledger   *Ledger

	mu   sync.RWMutex
	snap []snapEntry
}

// NewAccelerated creates an accelerated client over the swarm, running
// on the swarm's time source. fallback handles keys the snapshot cannot
// serve; pass nil to fail instead.
func NewAccelerated(sw *swarm.Swarm, fallback Router, cfg AcceleratedConfig) *AcceleratedRouter {
	src := sw.Time()
	return &AcceleratedRouter{cfg: cfg.withDefaults(), sw: sw, src: src, fallback: fallback, ledger: NewLedger(src.Now)}
}

// Name implements Router.
func (r *AcceleratedRouter) Name() string { return string(KindAccelerated) }

// Ledger exposes the republish ack ledger.
func (r *AcceleratedRouter) Ledger() *Ledger { return r.ledger }

// Refresh crawls the network from the bootstrap peers and replaces the
// snapshot with every dialable peer found. It returns the snapshot
// size.
func (r *AcceleratedRouter) Refresh(ctx context.Context, bootstrap []wire.PeerInfo) (int, error) {
	cr := crawler.New(r.sw, crawler.Config{
		Workers:        r.cfg.CrawlWorkers,
		ConnectTimeout: r.cfg.RPCTimeout,
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

// StartRefresher re-crawls on the given simulated interval until ctx is
// cancelled. bootstrap supplies fresh seeds per round (the caller's
// routing table contents, typically). The first crawl is delayed by a
// per-peer deterministic jitter so a fleet of clients started together
// does not thundering-herd the network on the same ticks. The loop is
// a self-rearming timer on the router's time source: cancellable,
// leak-free (the old time.After variant leaked a real timer per jitter
// wait), and a single queue event per cycle under the event scheduler.
func (r *AcceleratedRouter) StartRefresher(ctx context.Context, interval time.Duration, bootstrap func() []wire.PeerInfo) {
	if interval <= 0 {
		interval = time.Hour
	}
	jitter := simtime.Jitter(string(r.sw.Local())+"#refresh", interval)
	var cycle func(context.Context)
	cycle = func(cctx context.Context) {
		r.Refresh(cctx, bootstrap())
		if cctx.Err() == nil {
			r.src.AfterFunc(cctx, interval, cycle)
		}
	}
	r.src.AfterFunc(ctx, jitter+interval, cycle)
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
// K snapshot peers closest to the key — no walk, only a store-batch.
// All targets failing (a fully stale neighbourhood) falls back to the
// iterative walk.
func (r *AcceleratedRouter) Provide(ctx context.Context, c cid.Cid) (ProvideResult, error) {
	var res ProvideResult
	key := c.Bytes()
	closest := r.closest(key)
	if len(closest) == 0 {
		if r.fallback != nil {
			return r.fallback.Provide(ctx, c)
		}
		return res, fmt.Errorf("routing: accelerated provide %s: empty snapshot", c)
	}

	req := wire.Message{
		Type:      wire.TAddProvider,
		Key:       key,
		Providers: []wire.PeerInfo{{ID: r.sw.Local(), Addrs: r.sw.Addrs()}},
	}
	res.StoreTargets = closest
	res.StoreAttempts = len(closest)
	res.AckedTargets = dht.StoreBatch(ctx, r.sw, r.cfg.RPCTimeout, closest, req)
	res.StoreOK = len(res.AckedTargets)
	for _, t := range res.AckedTargets {
		r.ledger.Confirm(t, c.Key())
	}
	if res.StoreOK == 0 {
		return provideFallback(ctx, r.fallback, c, res,
			fmt.Errorf("routing: accelerated provide %s: all %d direct stores failed", c, res.StoreAttempts))
	}
	return res, nil
}

// ProvideMany implements Router: batch the CIDs against the snapshot's
// K-closest sets — group by target peer, one multi-record RPC per
// distinct peer, ack-ledger skips — and retry CIDs the snapshot could
// not land anywhere through the fallback walk.
func (r *AcceleratedRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (ProvideManyResult, error) {
	if r.SnapshotSize() == 0 {
		if r.fallback != nil {
			return r.fallback.ProvideMany(ctx, cids)
		}
		return ProvideManyResult{CIDs: len(cids)}, fmt.Errorf("routing: accelerated provide batch of %d: empty snapshot", len(cids))
	}
	res, provided := provideManyGrouped(ctx, r.sw, r.src, r.cfg.RPCTimeout, r.ledger, cids,
		func(c cid.Cid) []wire.PeerInfo { return r.closest(c.Bytes()) })
	return provideManyFallback(ctx, r.fallback, res, unprovided(cids, provided))
}

// FindProvidersStream implements Router: the one-hop snapshot lookup,
// yielding the winning response's providers, chained into the fallback
// walk's stream when the snapshot neighbourhood is exhausted.
func (r *AcceleratedRouter) FindProvidersStream(ctx context.Context, c cid.Cid) (ProviderSeq, *StreamInfo) {
	return streamWithFallback(ctx, r.direct, r.fallback, c)
}

// SessionPeers implements Router: the same one-hop snapshot lookup as
// FindProviders, without the walk fallback — a session candidate miss
// costs Bitswap nothing but the direct RPCs, and the caller decides
// whether to broadcast or walk next.
func (r *AcceleratedRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, int, error) {
	return sessionFromDirect(ctx, r.direct, c, n)
}

// WantBroadcast implements Router: the snapshot names the record
// holders directly, so the opportunistic broadcast is skipped.
func (r *AcceleratedRouter) WantBroadcast() bool { return false }

// direct runs the one-hop lookup against the snapshot neighbourhood,
// returning ErrNoProviders when the neighbourhood is exhausted without
// a provider-carrying response.
func (r *AcceleratedRouter) direct(ctx context.Context, c cid.Cid) ([]wire.PeerInfo, LookupInfo, error) {
	var info LookupInfo
	ctx, sp := telemetry.StartSpan(ctx, "accel-direct")
	defer func() {
		sp.Annotate("queried", strconv.Itoa(info.Queried))
		sp.Annotate("failed", strconv.Itoa(info.Failed))
		sp.End()
	}()
	src := r.src
	key := c.Bytes()
	closest := r.closest(key)

	type result struct {
		resp wire.Message
		err  error
	}
	// The snapshot tells us exactly which peers a one-hop provide
	// stored on, so the closest peer alone answers the common case: the
	// first wave is a single RPC, widening to Parallelism only when the
	// neighbourhood turns out stale.
	waveSize := 1
	for len(closest) > 0 && ctx.Err() == nil {
		wave := closest
		if len(wave) > waveSize {
			wave = wave[:waveSize]
		}
		closest = closest[len(wave):]
		waveSize = r.cfg.Parallelism

		ch := make(chan result, len(wave))
		wctx, cancel := src.WithCancel(ctx)
		for _, pi := range wave {
			pi := pi
			src.Go(wctx, func(gctx context.Context) {
				rctx, rcancel := src.WithTimeout(gctx, r.cfg.RPCTimeout)
				defer rcancel()
				resp, err := r.sw.Request(rctx, pi.ID, pi.Addrs, wire.Message{Type: wire.TGetProviders, Key: key})
				ch <- result{resp: resp, err: err}
			})
		}
		var winner *wire.Message
		// Every wave member deposits exactly once (the channel is
		// buffered to the wave), so the drain runs detached from ctx:
		// cancelled members unwind fast and still get counted.
		for i := 0; i < len(wave); i++ {
			res, ok := simtime.Recv(simtime.Detach(ctx), src, ch)
			if !ok {
				break
			}
			if res.err != nil || res.resp.Type == wire.TError {
				info.Failed++
				continue
			}
			info.Queried++
			if winner == nil && len(res.resp.Providers) > 0 {
				winner = &res.resp
				// Cancel the rest of the wave; drain continues so the
				// goroutines can exit.
				cancel()
			}
		}
		cancel()
		if winner != nil {
			return fillAddrs(r.sw, winner.Providers), info, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}
	return nil, info, ErrNoProviders
}

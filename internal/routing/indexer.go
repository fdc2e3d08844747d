package routing

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/dht"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Indexer is the delegated-routing aggregator node role: a peer
// holding a large provider-record store that publishers push to and
// requestors query directly over the existing wire/swarm fabric —
// content discovery in one RPC instead of a DHT walk. It is not a DHT
// participant; it speaks ADD_PROVIDER / GET_PROVIDERS (plus PING and
// IDENTIFY), and — when it serves a shard inside an IndexerSet — the
// GOSSIP anti-entropy push that replicates records across its replica
// group.
type Indexer struct {
	ident     peer.Identity
	sw        *swarm.Swarm
	providers *record.ProviderStore
	src       simtime.Source
	ttl       time.Duration
	timeout   time.Duration
	gossip    *Ledger // per-group-peer ack dedup for anti-entropy rounds
	tel       *telemetry.Recorder

	mu    sync.RWMutex
	group []wire.PeerInfo // replica-group neighbours (self excluded)
}

// IndexerConfig tunes an indexer node.
type IndexerConfig struct {
	// RecordTTL expires provider records (default 24 h, as the DHT's).
	RecordTTL time.Duration
	// RPCTimeout bounds one gossip RPC (default 10 s).
	RPCTimeout time.Duration
	// Time is the time source the indexer's swarm is built over — its
	// record stamps, TTLs and gossip timeouts all run on it; nil is the
	// wall clock.
	Time simtime.Source
}

// NewIndexer assembles an indexer node over the endpoint and installs
// its message handler.
func NewIndexer(ident peer.Identity, ep transport.Endpoint, cfg IndexerConfig) *Indexer {
	if cfg.RecordTTL <= 0 {
		cfg.RecordTTL = record.DefaultExpireInterval
	}
	if cfg.RPCTimeout <= 0 {
		cfg.RPCTimeout = 10 * time.Second
	}
	sw := swarm.New(ident, ep, cfg.Time)
	src := sw.Time()
	ix := &Indexer{
		ident:     ident,
		sw:        sw,
		providers: record.NewProviderStore(cfg.RecordTTL, src.Now),
		src:       src,
		ttl:       cfg.RecordTTL,
		timeout:   cfg.RPCTimeout,
		gossip:    NewAckLedger(src.Now),
		tel:       telemetry.NewRecorder(src),
	}
	ep.SetHandler(ix.handle)
	return ix
}

// ID returns the indexer's PeerID.
func (ix *Indexer) ID() peer.ID { return ix.ident.ID }

// Info returns the indexer's PeerInfo for client configuration.
func (ix *Indexer) Info() wire.PeerInfo {
	return wire.PeerInfo{ID: ix.ident.ID, Addrs: ix.sw.Addrs()}
}

// Len returns how many provider records the indexer holds.
func (ix *Indexer) Len() int { return ix.providers.Len() }

// HasProvider reports whether the indexer currently holds at least one
// unexpired provider record for c — the health probe churn-scenario
// runners sample per tick without spending an RPC.
func (ix *Indexer) HasProvider(c cid.Cid) bool {
	return len(ix.providers.Get(c)) > 0
}

// GC drops expired records, returning how many were removed. The
// churn-scenario engine calls it every tick so the store stays bounded
// by the records published within one TTL window.
func (ix *Indexer) GC() int { return ix.providers.GC() }

// Close shuts the indexer down.
func (ix *Indexer) Close() error { return ix.sw.Close() }

// SetReplicaGroup installs the indexer's gossip neighbours: the other
// members of its shard's replica group. Self entries are dropped.
func (ix *Indexer) SetReplicaGroup(peers []wire.PeerInfo) {
	var group []wire.PeerInfo
	for _, pi := range peers {
		if pi.ID != ix.ident.ID {
			group = append(group, pi)
		}
	}
	ix.mu.Lock()
	ix.group = group
	ix.mu.Unlock()
}

// ReplicaGroup returns the configured gossip neighbours.
func (ix *Indexer) ReplicaGroup() []wire.PeerInfo {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]wire.PeerInfo(nil), ix.group...)
}

// GossipLedgerLen returns how many acks the gossip dedup ledger holds
// (bounded-memory tests).
func (ix *Indexer) GossipLedgerLen() int { return ix.gossip.Len() }

// Telemetry exposes the indexer's recorder (gossip round counters).
func (ix *Indexer) Telemetry() *telemetry.Recorder { return ix.tel }

// GossipStats instruments one anti-entropy round.
type GossipStats struct {
	Peers   int // group peers pushed to this round
	RPCs    int // GOSSIP RPCs issued
	Acked   int // RPCs acknowledged
	Records int // record copies pushed (pre-dedup records × peers)
}

// gossipBatchMax bounds one GOSSIP message to the codec's record cap.
const gossipBatchMax = 2048

// Gossip runs one anti-entropy round: every unexpired provider record
// not yet confirmed at a group peer this cycle is pushed to it in
// batched GOSSIP RPCs, and acks land in the indexer's ledger so the
// next round skips them while the ack is fresh (cycle-scoped dedup —
// the same Ledger the republish path uses). Records carry their
// original publish instant, so a replicated copy expires with the
// original. RPCs are tagged with the gossip budget category.
func (ix *Indexer) Gossip(ctx context.Context) GossipStats {
	var st GossipStats
	group := ix.ReplicaGroup()
	if len(group) == 0 {
		return st
	}
	ctx = transport.WithRPCCategory(ctx, transport.CatGossip)
	// Acks past the freshness bound can never suppress a push again;
	// dropping them keeps the dedup ledger bounded by one freshness
	// window of live records, like the store GC bounds the records.
	ix.gossip.PruneStale()
	recs := ix.providers.Records()
	for _, target := range group {
		if ctx.Err() != nil {
			break
		}
		var entries []wire.ProviderEntry
		var keys []string
		for _, r := range recs {
			if ix.gossip.Fresh(target.ID, r.Cid.Key()) {
				continue
			}
			e := wire.ProviderEntry{Key: r.Cid.Bytes(), Provider: wire.PeerInfo{ID: r.Provider}, Published: r.Published}
			if addrs, ok := ix.sw.Book().Get(r.Provider); ok {
				e.Provider.Addrs = addrs
			}
			entries = append(entries, e)
			keys = append(keys, r.Cid.Key())
		}
		if len(entries) == 0 {
			continue
		}
		st.Peers++
		for off := 0; off < len(entries); off += gossipBatchMax {
			end := off + gossipBatchMax
			if end > len(entries) {
				end = len(entries)
			}
			st.RPCs++
			st.Records += end - off
			rctx, cancel := ix.src.WithTimeout(ctx, ix.timeout)
			resp, err := ix.sw.Request(rctx, target.ID, target.Addrs, wire.Message{Type: wire.TGossip, Records: entries[off:end]})
			cancel()
			if err != nil || resp.Type != wire.TAck {
				continue
			}
			st.Acked++
			ix.gossip.Confirm(target, keys[off:end]...)
		}
	}
	reg := ix.tel.Registry()
	reg.Counter("gossip_rounds").Inc()
	reg.Counter("gossip_rpcs").Add(float64(st.RPCs))
	reg.Counter("gossip_acked").Add(float64(st.Acked))
	reg.Counter("gossip_records").Add(float64(st.Records))
	return st
}

// handle serves the indexer's two-RPC protocol.
func (ix *Indexer) handle(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
	switch req.Type {
	case wire.TPing:
		return wire.Message{Type: wire.TAck}

	case wire.TIdentify:
		return wire.Message{Type: wire.TNodes, Peers: []wire.PeerInfo{ix.Info()}}

	case wire.TAddProvider:
		// A bulk announce carries a whole record batch (Key plus Keys) in
		// one RPC — how ProvideMany refreshes every record at this
		// indexer for the cost of a single request.
		if len(req.Providers) == 0 {
			return wire.ErrorMessage("no provider supplied")
		}
		prov := req.Providers[0]
		stored := 0
		for _, key := range req.AllKeys() {
			c, err := cid.FromBytes(key)
			if err != nil {
				return wire.ErrorMessage("bad cid: %v", err)
			}
			ix.providers.Add(record.ProviderRecord{Cid: c, Provider: prov.ID, Published: ix.src.Now()})
			stored++
		}
		if stored == 0 {
			return wire.ErrorMessage("no record keys supplied")
		}
		if len(prov.Addrs) > 0 {
			ix.sw.Book().Add(prov.ID, prov.Addrs)
		}
		return wire.Message{Type: wire.TAck}

	case wire.TGossip:
		// Anti-entropy push from a replica-group peer: adopt each record
		// with its original publish instant — never refreshed — so the
		// copy expires exactly when the original does, and never let an
		// older copy roll back a record we refreshed since. Confirming
		// the sender in our own gossip ledger suppresses the echo: we
		// will not push the same records straight back this cycle.
		now := ix.src.Now()
		for _, e := range req.Records {
			c, err := cid.FromBytes(e.Key)
			if err != nil {
				return wire.ErrorMessage("bad record cid: %v", err)
			}
			rec := record.ProviderRecord{Cid: c, Provider: e.Provider.ID, Published: e.Published}
			if rec.Expired(now, ix.ttl) {
				continue
			}
			newer := true
			for _, have := range ix.providers.Get(c) {
				if have.Provider == e.Provider.ID && !have.Published.Before(e.Published) {
					newer = false
					break
				}
			}
			if newer {
				ix.providers.Add(rec)
			}
			if len(e.Provider.Addrs) > 0 {
				ix.sw.Book().Add(e.Provider.ID, e.Provider.Addrs)
			}
			ix.gossip.Confirm(wire.PeerInfo{ID: from}, c.Key())
		}
		return wire.Message{Type: wire.TAck}

	case wire.TGetProviders:
		c, err := cid.FromBytes(req.Key)
		if err != nil {
			return wire.ErrorMessage("bad cid: %v", err)
		}
		resp := wire.Message{Type: wire.TProviders}
		for _, pr := range ix.providers.Get(c) {
			info := wire.PeerInfo{ID: pr.Provider}
			if addrs, ok := ix.sw.Book().Get(pr.Provider); ok {
				info.Addrs = addrs
			}
			resp.Providers = append(resp.Providers, info)
		}
		return resp
	}
	return wire.ErrorMessage("indexer: unhandled message %s", req.Type)
}

// IndexerRouterConfig tunes the delegated-routing client.
type IndexerRouterConfig struct {
	// RPCTimeout bounds one indexer RPC (default 10 s).
	RPCTimeout time.Duration
}

func (c IndexerRouterConfig) withDefaults() IndexerRouterConfig {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 10 * time.Second
	}
	return c
}

// IndexerRouter is the delegated-routing client. Against a flat
// indexer list it publishes provider records to every indexer and
// answers lookups from the first indexer that knows the key; against a
// sharded IndexerSet it routes each CID to its shard's replica group —
// publications land on every replica, lookups run down the replica
// list (fail-over past offline owners) with provider batches merged
// across replicas. Misses fall back to the DHT either way (the
// production deployment's behaviour — the indexer accelerates the
// common case, the DHT stays authoritative).
type IndexerRouter struct {
	cfg      IndexerRouterConfig
	sw       *swarm.Swarm
	src      simtime.Source // the swarm's
	fallback Router         // nil disables fallback (tests)
	ledger   *Ledger

	mu       sync.RWMutex
	indexers []wire.PeerInfo
	set      *IndexerSet // non-nil selects sharded routing
}

// NewIndexerRouter creates a client talking to the given indexers,
// running on the swarm's time source.
func NewIndexerRouter(sw *swarm.Swarm, indexers []wire.PeerInfo, fallback Router, cfg IndexerRouterConfig) *IndexerRouter {
	src := sw.Time()
	return &IndexerRouter{
		cfg:      cfg.withDefaults(),
		sw:       sw,
		src:      src,
		fallback: fallback,
		ledger:   NewLedger(src.Now),
		indexers: append([]wire.PeerInfo(nil), indexers...),
	}
}

// Name implements Router.
func (r *IndexerRouter) Name() string { return string(KindIndexer) }

// Ledger exposes the republish ack ledger.
func (r *IndexerRouter) Ledger() *Ledger { return r.ledger }

// SetIndexerSet installs a shard topology: every Provide / lookup is
// routed to the owning shard's replica group instead of the flat list.
// Passing nil reverts to flat routing.
func (r *IndexerRouter) SetIndexerSet(set *IndexerSet) {
	r.mu.Lock()
	r.set = set
	r.mu.Unlock()
}

func (r *IndexerRouter) targets() []wire.PeerInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.set != nil {
		return r.set.All()
	}
	return append([]wire.PeerInfo(nil), r.indexers...)
}

// targetsFor returns the indexers responsible for c: the owning
// shard's replica group under a sharded topology, every configured
// indexer otherwise. A shardless set owns nothing — callers fall
// through to their fallback.
func (r *IndexerRouter) targetsFor(c cid.Cid) []wire.PeerInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.set != nil {
		sh := r.set.ShardOf(c)
		if sh < 0 {
			return nil
		}
		return r.set.Replicas(sh)
	}
	return append([]wire.PeerInfo(nil), r.indexers...)
}

// Provide implements Router: push the record to every indexer
// responsible for c — the whole flat list, or the owning shard's
// replica group — in one hop each. Replicas that are offline simply
// miss the push; the group's gossip repairs them later. If no indexer
// accepts it, fall back to the DHT walk so the record is never lost.
func (r *IndexerRouter) Provide(ctx context.Context, c cid.Cid) (ProvideResult, error) {
	var res ProvideResult
	targets := r.targetsFor(c)
	if len(targets) == 0 {
		if r.fallback != nil {
			return r.fallback.Provide(ctx, c)
		}
		return res, fmt.Errorf("routing: indexer provide %s: no indexers configured", c)
	}
	req := wire.Message{
		Type:      wire.TAddProvider,
		Key:       c.Bytes(),
		Providers: []wire.PeerInfo{{ID: r.sw.Local(), Addrs: r.sw.Addrs()}},
	}
	res.StoreTargets = targets
	res.StoreAttempts = len(targets)
	res.AckedTargets = dht.StoreBatch(ctx, r.sw, r.cfg.RPCTimeout, targets, req)
	res.StoreOK = len(res.AckedTargets)
	for _, t := range res.AckedTargets {
		r.ledger.Confirm(t, c.Key())
	}
	if res.StoreOK == 0 {
		return provideFallback(ctx, r.fallback, c, res,
			fmt.Errorf("routing: indexer provide %s: all %d indexer stores failed", c, res.StoreAttempts))
	}
	return res, nil
}

// ProvideMany implements Router: one bulk announce per responsible
// indexer — under a sharded topology the batch is split per shard and
// each replica receives only its shard's record keys in a single
// multi-record ADD_PROVIDER RPC — with ack-ledger skips, and a
// fallback retry for the CIDs no indexer accepted.
func (r *IndexerRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (ProvideManyResult, error) {
	if len(r.targets()) == 0 {
		if r.fallback != nil {
			return r.fallback.ProvideMany(ctx, cids)
		}
		return ProvideManyResult{CIDs: len(cids)}, fmt.Errorf("routing: indexer provide batch of %d: no indexers configured", len(cids))
	}
	res, provided := provideManyGrouped(ctx, r.sw, r.src, r.cfg.RPCTimeout, r.ledger, cids, r.targetsFor)
	return provideManyFallback(ctx, r.fallback, res, unprovided(cids, provided))
}

// FindProvidersStream implements Router: ask the indexers responsible
// for c in replica order, yielding each replica's provider batch as it
// arrives (deduplicated across replicas, so a consumer that keeps the
// stream open merges the whole replica group's knowledge). An offline
// shard owner just costs one failed RPC before the next replica
// answers — the fail-over path under churn. A full miss chains into
// the DHT fallback's stream with the indexer RPCs included in the
// reported message count.
func (r *IndexerRouter) FindProvidersStream(ctx context.Context, c cid.Cid) (ProviderSeq, *StreamInfo) {
	st := &StreamInfo{}
	seq := func(yield func([]wire.PeerInfo) bool) {
		if sessionMissed(ctx, c) {
			streamFallback(ctx, r.fallback, c, LookupInfo{}, yield, st)
			return
		}
		var info LookupInfo
		sctx, sp := telemetry.StartSpan(ctx, "indexer-direct")
		key := c.Bytes()
		seen := make(map[peer.ID]bool)
		yielded := false
		for _, ix := range r.targetsFor(c) {
			if ctx.Err() != nil {
				break
			}
			rctx, cancel := r.src.WithTimeout(sctx, r.cfg.RPCTimeout)
			resp, err := r.sw.Request(rctx, ix.ID, ix.Addrs, wire.Message{Type: wire.TGetProviders, Key: key})
			cancel()
			if err != nil || resp.Type != wire.TProviders {
				info.Failed++
				sp.Event("replica-failover", telemetry.A("indexer", ix.ID.String()))
				continue
			}
			info.Queried++
			batch := dedupProviders(seen, fillAddrs(r.sw, resp.Providers))
			if len(batch) == 0 {
				continue
			}
			yielded = true
			if !yield(batch) {
				break
			}
		}
		sp.Annotate("queried", strconv.Itoa(info.Queried))
		sp.Annotate("failed", strconv.Itoa(info.Failed))
		sp.End()
		if yielded {
			st.set(info, nil)
			return
		}
		if err := ctx.Err(); err != nil {
			st.set(info, err)
			return
		}
		streamFallback(ctx, r.fallback, c, info, yield, st)
	}
	return seq, st
}

// SessionPeers implements Router: one RPC to the first indexer that
// knows the key, without the DHT fallback — a session candidate miss
// leaves the caller on the broadcast/walk path.
func (r *IndexerRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, int, error) {
	return sessionFromDirect(ctx, r.direct, c, n)
}

// WantBroadcast implements Router: the indexer names the providers
// directly, so the opportunistic broadcast is skipped.
func (r *IndexerRouter) WantBroadcast() bool { return false }

// direct queries the indexers responsible for c in turn — replica
// order under a sharded topology, so a dead primary costs one failed
// RPC before the next replica answers — returning ErrNoProviders when
// every responsible indexer misses or is unreachable.
func (r *IndexerRouter) direct(ctx context.Context, c cid.Cid) ([]wire.PeerInfo, LookupInfo, error) {
	var info LookupInfo
	ctx, sp := telemetry.StartSpan(ctx, "indexer-direct")
	defer func() {
		sp.Annotate("queried", strconv.Itoa(info.Queried))
		sp.Annotate("failed", strconv.Itoa(info.Failed))
		sp.End()
	}()
	key := c.Bytes()
	for _, ix := range r.targetsFor(c) {
		if ctx.Err() != nil {
			break
		}
		rctx, cancel := r.src.WithTimeout(ctx, r.cfg.RPCTimeout)
		resp, err := r.sw.Request(rctx, ix.ID, ix.Addrs, wire.Message{Type: wire.TGetProviders, Key: key})
		cancel()
		if err != nil || resp.Type != wire.TProviders {
			info.Failed++
			sp.Event("replica-failover", telemetry.A("indexer", ix.ID.String()))
			continue
		}
		info.Queried++
		if len(resp.Providers) > 0 {
			return fillAddrs(r.sw, resp.Providers), info, nil
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}
	return nil, info, ErrNoProviders
}

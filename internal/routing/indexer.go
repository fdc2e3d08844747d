package routing

import (
	"context"
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
	gossip    *Ledger // per-group-peer ack dedup for anti-entropy rounds
	tel       *telemetry.Recorder

	mu    sync.RWMutex
	group []wire.PeerInfo // replica-group neighbours (self excluded)
}

// IndexerConfig tunes an indexer node.
type IndexerConfig struct {
	// RecordTTL expires provider records (default 24 h, as the DHT's).
	RecordTTL time.Duration
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
	sw := swarm.New(ident, ep, cfg.Time)
	src := sw.Time()
	ix := &Indexer{
		ident:     ident,
		sw:        sw,
		providers: record.NewProviderStore(cfg.RecordTTL, src.Now),
		src:       src,
		ttl:       cfg.RecordTTL,
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

// gossipTimeout bounds one GOSSIP RPC.
const gossipTimeout = 10 * time.Second

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
			rctx, cancel := ix.src.WithTimeout(ctx, gossipTimeout)
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
		return dht.AddProviders(ix.providers, ix.sw.Book(), ix.src.Now(), req)

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
		return wire.Message{Type: wire.TProviders, Providers: dht.ProviderInfos(ix.providers, ix.sw.Book(), c)}
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

// IndexerRouter is the delegated-routing client. It routes each CID
// through an IndexerSet to its shard's replica group (a flat indexer
// list is one shard): publications land on every replica, lookups run
// down the replica list (fail-over past offline owners) with provider
// batches merged across replicas. Misses fall back to the DHT (the
// production deployment's behaviour — the indexer accelerates the
// common case, the DHT stays authoritative).
type IndexerRouter struct {
	oneHop
	set *IndexerSet
}

// NewIndexerRouter creates a client routing through the indexer set,
// running on the swarm's time source. A nil set owns no key, so every
// call goes to the fallback.
func NewIndexerRouter(sw *swarm.Swarm, set *IndexerSet, fallback Router, cfg IndexerRouterConfig) *IndexerRouter {
	if set == nil {
		set = NewIndexerSet(nil)
	}
	return &IndexerRouter{oneHop: newOneHop(KindIndexer, sw, cfg.withDefaults().RPCTimeout, fallback), set: set}
}

// targetsFor returns the replica group of the shard owning c. A
// shardless set owns nothing — callers fall through to their fallback.
func (r *IndexerRouter) targetsFor(c cid.Cid) []wire.PeerInfo {
	sh := r.set.ShardOf(c)
	if sh < 0 {
		return nil
	}
	return r.set.Replicas(sh)
}

// Provide implements Router: push the record to every replica of the
// owning shard in one hop each. Replicas that are offline simply miss
// the push; the group's gossip repairs them later. If no replica
// accepts it, fall back to the DHT walk so the record is never lost.
func (r *IndexerRouter) Provide(ctx context.Context, c cid.Cid) (ProvideResult, error) {
	return r.provide(ctx, c, r.targetsFor(c))
}

// ProvideMany implements Router: the batch is split per shard, and each
// replica receives only its shard's record keys in a single
// multi-record ADD_PROVIDER RPC, with ack-ledger skips and a fallback
// retry for the CIDs no indexer accepted.
func (r *IndexerRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (ProvideManyResult, error) {
	return r.provideMany(ctx, cids, len(r.set.All()) > 0, r.targetsFor)
}

// FindProvidersStream implements Router: ask the replicas of c's shard
// in order, yielding each replica's provider batch as it arrives
// (deduplicated across replicas, so a consumer that keeps the stream
// open merges the whole replica group's knowledge). An offline shard
// owner just costs one failed RPC before the next replica answers —
// the fail-over path under churn. A full miss chains into the DHT
// fallback's stream.
func (r *IndexerRouter) FindProvidersStream(ctx context.Context, c cid.Cid) ProviderSeq {
	return streamWithFallback(ctx, r.lookup, r.fallback, c)
}

// SessionPeers implements Router: the replica lookup stopped at the
// first replica that knows the key, without the DHT fallback — a
// session candidate miss leaves the caller on the broadcast/walk path.
func (r *IndexerRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	return sessionFromLookup(ctx, r.lookup, c, n)
}

// lookup asks the replicas of c's shard one at a time, in order.
func (r *IndexerRouter) lookup(ctx context.Context, c cid.Cid, yield func([]wire.PeerInfo) bool) {
	r.ask(ctx, "indexer-direct", c, r.targetsFor(c), 1, yield)
}

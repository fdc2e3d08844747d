// Package routing abstracts content routing behind a pluggable Router
// interface. The paper shows that multi-hop DHT walks dominate both
// publication delay (§6.1, Fig 9a–c) and retrieval delay (§6.2) and
// proposes running alternative discovery paths in parallel as the main
// optimization lever; production IPFS answered with the accelerated
// DHT client and delegated indexer nodes. This package provides all of
// them over the same message fabric so they can be compared and
// ablated:
//
//   - DHTRouter: the baseline iterative walk of internal/dht.
//   - AcceleratedRouter: a full-routing-table client that snapshots
//     the network with internal/crawler and then provides/looks up in
//     one hop against the K closest peers.
//   - IndexerRouter: a delegated-routing client publishing to and
//     querying indexer aggregator nodes, falling back to the DHT.
//   - ParallelRouter: a composite racing member routers, returning the
//     first success and cancelling the losers (§6.2's "parallel
//     discovery" generalized beyond Bitswap).
//
// The Router API has two surfaces. Publication is batch-first:
// Provide publishes one record, ProvideMany publishes a whole batch
// grouped by target peer (one multi-record ADD_PROVIDER RPC per peer)
// with a per-cycle ack Ledger, so a republish cycle costs O(distinct
// target peers) instead of O(CIDs × walk). Discovery is stream-first:
// FindProvidersStream yields providers as lookup responses arrive, so
// a retrieval can hand the first provider to Bitswap immediately while
// later ones become fail-over candidates.
package routing

import (
	"context"
	"errors"
	"sync"

	"repro/internal/cid"
	"repro/internal/dht"
	"repro/internal/peer"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Kind selects a Router implementation in core.Config.
type Kind string

// Available router kinds.
const (
	// KindDHT is the baseline iterative DHT walk (the deployed client).
	KindDHT Kind = "dht"
	// KindAccelerated is the one-hop full-routing-table client.
	KindAccelerated Kind = "accelerated"
	// KindIndexer delegates to indexer nodes with DHT fallback.
	KindIndexer Kind = "indexer"
	// KindParallel races every configured router.
	KindParallel Kind = "parallel"
)

// ProvideResult aliases the DHT's publication instrumentation so every
// router reports the same counts. One-hop routers leave the walk fields
// zero and record no dht-walk span — that is the saving they exist to
// demonstrate.
type ProvideResult = dht.ProvideResult

// LookupInfo aliases the DHT's walk statistics; non-walking routers fill
// Queried/Failed with their direct RPC counts so message accounting
// stays comparable across implementations.
type LookupInfo = dht.WalkInfo

// ProviderSeq is a push iterator over provider batches: one yield per
// record-carrying lookup response, in arrival order. yield returning
// false stops the underlying lookup. The sequence runs synchronously
// inside the call — run it on its own goroutine to consume the first
// batch while the lookup keeps producing fail-over candidates.
type ProviderSeq func(yield func([]wire.PeerInfo) bool)

// StreamInfo carries a streaming lookup's statistics and terminal
// error; both are final once the ProviderSeq invocation returns (it is
// safe to read them from another goroutine after that).
type StreamInfo struct {
	mu   sync.Mutex
	info LookupInfo
	err  error
}

func (s *StreamInfo) set(info LookupInfo, err error) {
	s.mu.Lock()
	s.info, s.err = info, err
	s.mu.Unlock()
}

// Info returns the lookup statistics accumulated by the stream.
func (s *StreamInfo) Info() LookupInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.info
}

// Err returns the lookup's terminal error: nil when at least one
// provider batch was yielded, ErrNoProviders on an exhausted lookup, or
// the context error.
func (s *StreamInfo) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// ProvideManyResult instruments one batched publication: a whole CID
// batch grouped by target peer and pushed with one multi-record
// ADD_PROVIDER RPC per distinct target, minus the targets the ack
// ledger already confirmed this cycle.
type ProvideManyResult struct {
	CIDs     int // batch size
	Provided int // CIDs with >= 1 record confirmed (acked or ledger-fresh) this cycle
	Targets  int // distinct target peers the batch grouped onto
	// StoreRPCs counts the multi-record store RPCs issued — at most one
	// per distinct target, the bound that makes republish O(targets).
	StoreRPCs int
	// SkippedTargets counts targets skipped entirely because the ack
	// ledger had every one of their records confirmed this cycle.
	SkippedTargets int
	Acked          int // store RPCs acknowledged
	// Walks counts full WalkClosest lookups paid for CIDs with no
	// remembered target set (first publication through this router).
	Walks int
	Walk  LookupInfo // aggregate cost of those walks
}

// Msgs counts the routing RPCs the batch issued: walk queries plus
// store RPCs.
func (r ProvideManyResult) Msgs() int {
	return LookupMessages(r.Walk) + r.StoreRPCs
}

// merge folds another batch result (a fallback's, or a parallel
// member's) into r.
func (r ProvideManyResult) merge(o ProvideManyResult) ProvideManyResult {
	r.Targets += o.Targets
	r.StoreRPCs += o.StoreRPCs
	r.SkippedTargets += o.SkippedTargets
	r.Acked += o.Acked
	r.Walks += o.Walks
	r.Walk = mergeLookup(r.Walk, o.Walk)
	return r
}

// Router is the content-routing abstraction core.Node publishes and
// retrieves through, in two surfaces. Publication: Provide pushes one
// provider record, ProvideMany pushes a batch with per-target-peer
// grouping and ack-ledger skips (the §3.1 fan-out amortized across a
// republish cycle). Discovery: FindProvidersStream yields providers as
// responses arrive (§3.2 without the wait for complete results), and
// SessionPeers/WantBroadcast are the session surface Bitswap consults.
type Router interface {
	// Name identifies the implementation in experiment output.
	Name() string
	// Provide publishes a provider record for c.
	Provide(ctx context.Context, c cid.Cid) (ProvideResult, error)
	// ProvideMany publishes records for a whole CID batch, grouping the
	// batch by target peer: one multi-record ADD_PROVIDER RPC per
	// distinct target, skipping targets whose records the ack ledger
	// already confirmed this cycle. It returns an error only when the
	// whole batch failed to land a single record.
	ProvideMany(ctx context.Context, cids []cid.Cid) (ProvideManyResult, error)
	// FindProvidersStream starts a provider lookup for c and returns an
	// iterator yielding provider batches as responses arrive, plus the
	// accessor for the lookup's statistics and terminal error (valid
	// once the iterator returns). Implementations end the stream when
	// their lookup is exhausted or the consumer's yield returns false.
	FindProvidersStream(ctx context.Context, c cid.Cid) (ProviderSeq, *StreamInfo)
	// SessionPeers returns up to n candidate peers believed to hold c
	// without paying a multi-hop walk, plus the routing RPCs spent
	// learning them. Routers with no cheap provider knowledge (the
	// baseline walk) return ErrNoSessionPeers, keeping Bitswap on its
	// opportunistic broadcast.
	SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, int, error)
	// WantBroadcast reports whether Bitswap's opportunistic WANT-HAVE
	// broadcast should still run alongside routed session candidates.
	// One-hop routers answer false — they know the providers, so the
	// broadcast is pure waste (§3.2) — while the walk-based baseline
	// and composites containing it answer true.
	WantBroadcast() bool
}

// LazyStream adapts a blocking slice-returning lookup to the streaming
// surface: the lookup runs when the sequence is invoked and its result
// is yielded as a single batch. Custom Router implementations built on
// one-shot lookups use it to satisfy FindProvidersStream.
func LazyStream(lookup func() ([]wire.PeerInfo, LookupInfo, error)) (ProviderSeq, *StreamInfo) {
	st := &StreamInfo{}
	seq := func(yield func([]wire.PeerInfo) bool) {
		providers, info, err := lookup()
		if err == nil && len(providers) == 0 {
			err = ErrNoProviders
		}
		st.set(info, err)
		if err == nil {
			yield(providers)
		}
	}
	return seq, st
}

// ErrNoProviders is returned when a lookup exhausts every path without
// finding a provider record; it wraps the DHT sentinel so callers
// checking errors.Is(err, dht.ErrNoProviders) keep working.
var ErrNoProviders = dht.ErrNoProviders

// ErrNoSessionPeers is returned by SessionPeers when a router has no
// cheap provider knowledge for the key; the caller falls back to the
// opportunistic broadcast (and ultimately the FindProviders walk).
var ErrNoSessionPeers = errors.New("routing: no session peers known")

// capPeers bounds a candidate list to n entries (n <= 0 means all).
func capPeers(peers []wire.PeerInfo, n int) []wire.PeerInfo {
	if n > 0 && len(peers) > n {
		return peers[:n]
	}
	return peers
}

// sessionMissKey marks a context whose Bitswap session consult already
// probed the router's direct path for a CID and missed.
type sessionMissKey struct{}

// WithSessionMiss hands a SessionPeers consult miss forward: a
// FindProvidersStream call under the returned context skips the
// one-hop direct probe for c — the consult moments earlier asked the
// same snapshot/indexer neighbourhood and got nothing — and goes
// straight to the fallback walk, saving a duplicate RPC wave per
// unpublished-content retrieval.
func WithSessionMiss(ctx context.Context, c cid.Cid) context.Context {
	return context.WithValue(ctx, sessionMissKey{}, c.Key())
}

// sessionMissed reports whether the context records a consult miss for c.
func sessionMissed(ctx context.Context, c cid.Cid) bool {
	k, _ := ctx.Value(sessionMissKey{}).(string)
	return k != "" && k == c.Key()
}

// lookupFn is a one-hop router's lookup (snapshot neighbourhood or
// shard replicas): it yields provider batches until yield returns
// false or its targets are exhausted, and returns what it spent.
type lookupFn func(ctx context.Context, c cid.Cid, yield func([]wire.PeerInfo) bool) LookupInfo

// streamWithFallback is the shared direct-then-fallback streaming
// control flow of the one-hop routers: yield the direct lookup's
// batches, or, when it yields none, chain into the fallback router's
// stream with the wasted direct RPCs merged into the reported cost. A
// session-consult miss recorded on the context skips the direct probe
// entirely — those RPCs went out (and were charged) during the consult.
func streamWithFallback(ctx context.Context, lookup lookupFn, fallback Router, c cid.Cid) (ProviderSeq, *StreamInfo) {
	st := &StreamInfo{}
	seq := func(yield func([]wire.PeerInfo) bool) {
		if sessionMissed(ctx, c) {
			streamFallback(ctx, fallback, c, LookupInfo{}, yield, st)
			return
		}
		yielded := false
		info := lookup(ctx, c, func(batch []wire.PeerInfo) bool {
			yielded = true
			return yield(batch)
		})
		if yielded {
			st.set(info, nil)
			return
		}
		if err := ctx.Err(); err != nil {
			st.set(info, err)
			return
		}
		streamFallback(ctx, fallback, c, info, yield, st)
	}
	return seq, st
}

// streamFallback runs the fallback router's provider stream, charging
// the wasted direct-path cost onto the reported statistics. A nil
// fallback ends the stream with ErrNoProviders.
func streamFallback(ctx context.Context, fallback Router, c cid.Cid, direct LookupInfo, yield func([]wire.PeerInfo) bool, st *StreamInfo) {
	if fallback == nil {
		err := ctx.Err()
		if err == nil {
			err = ErrNoProviders
		}
		st.set(direct, err)
		return
	}
	// Mark the hand-off on the trace: everything the fallback does from
	// here attributes to the same parent span.
	telemetry.SpanFrom(ctx).Event("fallback", telemetry.A("to", fallback.Name()))
	seq, fst := fallback.FindProvidersStream(ctx, c)
	seq(yield)
	st.set(mergeLookup(direct, fst.Info()), fst.Err())
}

// sessionFromLookup is the shared SessionPeers body of the one-hop
// routers: the lookup's first batch capped to n candidates, with a
// miss mapped to ErrNoSessionPeers so the caller keeps its
// broadcast/walk fallback.
func sessionFromLookup(ctx context.Context, lookup lookupFn, c cid.Cid, n int) ([]wire.PeerInfo, int, error) {
	var first []wire.PeerInfo
	info := lookup(ctx, c, func(batch []wire.PeerInfo) bool {
		first = batch
		return false
	})
	if first == nil {
		return nil, LookupMessages(info), ErrNoSessionPeers
	}
	return capPeers(first, n), LookupMessages(info), nil
}

// LookupMessages counts the routing RPCs one lookup issued. Walk-based
// lookups report every launched query (including ones abandoned at
// early stop); one-hop routers fill Queried/Failed directly.
func LookupMessages(info LookupInfo) int {
	return max(info.Launched, info.Queried+info.Failed)
}

// ProvideMessages counts the routing RPCs one publication issued: the
// walk queries plus the record-store batch.
func ProvideMessages(res ProvideResult) int {
	return LookupMessages(res.Walk) + res.StoreAttempts
}

// mergeLookup accumulates a fallback path's statistics onto the direct
// path's, so a miss-then-fallback lookup reports its full message cost.
func mergeLookup(direct, fallback LookupInfo) LookupInfo {
	return LookupInfo{
		Queried:  direct.Queried + fallback.Queried,
		Failed:   direct.Failed + fallback.Failed,
		Launched: LookupMessages(direct) + LookupMessages(fallback),
	}
}

// fillAddrs backfills provider addresses from the local address book —
// §3.2's "check whether they already have an address" shortcut.
func fillAddrs(sw *swarm.Swarm, providers []wire.PeerInfo) []wire.PeerInfo {
	out := make([]wire.PeerInfo, 0, len(providers))
	for _, p := range providers {
		if addrs, ok := sw.Book().Get(p.ID); ok && len(p.Addrs) == 0 {
			p.Addrs = addrs
		}
		out = append(out, p)
	}
	return out
}

// dedupProviders filters a batch down to peers not yet seen this
// stream, so merged or multi-response streams yield each provider once.
func dedupProviders(seen map[peer.ID]bool, batch []wire.PeerInfo) []wire.PeerInfo {
	out := batch[:0:len(batch)]
	for _, p := range batch {
		if seen[p.ID] {
			continue
		}
		seen[p.ID] = true
		out = append(out, p)
	}
	return out
}

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
// router reports the same store counts. One-hop routers leave the walk
// fields zero and record no dht-walk span — that is the saving they
// exist to demonstrate. A publication's request count is not here: it
// is read off the operation's transport.Meter.
type ProvideResult = dht.ProvideResult

// ProviderSeq is a push iterator over provider batches: one yield per
// record-carrying lookup response, in arrival order. yield returning
// false stops the underlying lookup. The sequence runs synchronously
// inside the call — run it on its own goroutine to consume the first
// batch while the lookup keeps producing fail-over candidates. It
// returns the lookup's terminal error: nil when at least one provider
// batch was yielded, ErrNoProviders on an exhausted lookup, or the
// context error.
type ProviderSeq func(yield func([]wire.PeerInfo) bool) error

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
}

// merge folds another batch result (a fallback's, or a parallel
// member's) into r.
func (r ProvideManyResult) merge(o ProvideManyResult) ProvideManyResult {
	r.Targets += o.Targets
	r.StoreRPCs += o.StoreRPCs
	r.SkippedTargets += o.SkippedTargets
	r.Acked += o.Acked
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
	// iterator yielding provider batches as responses arrive.
	// Implementations end the stream when their lookup is exhausted or
	// the consumer's yield returns false.
	FindProvidersStream(ctx context.Context, c cid.Cid) ProviderSeq
	// SessionPeers returns up to n candidate peers believed to hold c
	// without paying a multi-hop walk. Routers with no cheap provider
	// knowledge (the baseline walk) return ErrNoSessionPeers, keeping
	// Bitswap on its opportunistic broadcast.
	SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error)
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
func LazyStream(lookup func() ([]wire.PeerInfo, error)) ProviderSeq {
	return func(yield func([]wire.PeerInfo) bool) error {
		providers, err := lookup()
		if err == nil && len(providers) == 0 {
			err = ErrNoProviders
		}
		if err == nil {
			yield(providers)
		}
		return err
	}
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
// false or its targets are exhausted.
type lookupFn func(ctx context.Context, c cid.Cid, yield func([]wire.PeerInfo) bool)

// streamWithFallback is the shared direct-then-fallback streaming
// control flow of the one-hop routers: yield the direct lookup's
// batches, or, when it yields none, chain into the fallback router's
// stream. A session-consult miss recorded on the context skips the
// direct probe entirely — those RPCs went out during the consult.
func streamWithFallback(ctx context.Context, lookup lookupFn, fallback Router, c cid.Cid) ProviderSeq {
	return func(yield func([]wire.PeerInfo) bool) error {
		if !sessionMissed(ctx, c) {
			yielded := false
			lookup(ctx, c, func(batch []wire.PeerInfo) bool {
				yielded = true
				return yield(batch)
			})
			if yielded {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if fallback == nil {
			if err := ctx.Err(); err != nil {
				return err
			}
			return ErrNoProviders
		}
		// Mark the hand-off on the trace: everything the fallback does
		// from here attributes to the same parent span.
		telemetry.SpanFrom(ctx).Event("fallback", telemetry.A("to", fallback.Name()))
		return fallback.FindProvidersStream(ctx, c)(yield)
	}
}

// sessionFromLookup is the shared SessionPeers body of the one-hop
// routers: the lookup's first batch capped to n candidates, with a
// miss mapped to ErrNoSessionPeers so the caller keeps its
// broadcast/walk fallback.
func sessionFromLookup(ctx context.Context, lookup lookupFn, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	var first []wire.PeerInfo
	lookup(ctx, c, func(batch []wire.PeerInfo) bool {
		first = batch
		return false
	})
	if first == nil {
		return nil, ErrNoSessionPeers
	}
	return capPeers(first, n), nil
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

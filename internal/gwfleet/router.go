package gwfleet

import (
	"context"

	"repro/internal/cid"
	"repro/internal/routing"
	"repro/internal/wire"
)

// CachingRouter wraps a gateway node's content router with the fleet's
// shared provider cache: discovery consults the cache first (a hit
// costs zero routing RPCs fleet-wide), misses delegate to the inner
// router and deposit what the lookup learned, and publishes invalidate
// the negative cache so freshly published content is immediately
// retrievable. Every gateway instance in a Fleet shares one cache, so
// a provider learned by one instance's retrieval serves them all —
// this is what keeps the routing half of origin RPC amplification
// sub-linear under a flash crowd.
type CachingRouter struct {
	inner  routing.Router
	shared *SharedCache
}

var _ routing.Router = (*CachingRouter)(nil)

// NewCachingRouter wraps inner with the fleet's shared provider cache.
func NewCachingRouter(inner routing.Router, shared *SharedCache) *CachingRouter {
	return &CachingRouter{inner: inner, shared: shared}
}

// Name implements routing.Router.
func (r *CachingRouter) Name() string { return "fleet-cached+" + r.inner.Name() }

// Provide implements routing.Router, invalidating any negative-cache
// window for c: the content provably exists now.
func (r *CachingRouter) Provide(ctx context.Context, c cid.Cid) (routing.ProvideResult, error) {
	r.shared.Invalidate(c)
	return r.inner.Provide(ctx, c)
}

// ProvideMany implements routing.Router with the same invalidation.
func (r *CachingRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (routing.ProvideManyResult, error) {
	for _, c := range cids {
		r.shared.Invalidate(c)
	}
	return r.inner.ProvideMany(ctx, cids)
}

// FindProvidersStream implements routing.Router: a provider-cache hit
// yields the cached records as a single batch without any RPC; a miss
// streams from the inner router while teeing every yielded batch into
// the cache.
func (r *CachingRouter) FindProvidersStream(ctx context.Context, c cid.Cid) routing.ProviderSeq {
	if cached := r.shared.Providers(c); len(cached) > 0 {
		return routing.LazyStream(func() ([]wire.PeerInfo, error) { return cached, nil })
	}
	seq := r.inner.FindProvidersStream(ctx, c)
	return func(yield func([]wire.PeerInfo) bool) error {
		var learned []wire.PeerInfo
		err := seq(func(batch []wire.PeerInfo) bool {
			learned = append(learned, batch...)
			return yield(batch)
		})
		if len(learned) > 0 {
			r.shared.PutProviders(c, learned)
		}
		return err
	}
}

// SessionPeers implements routing.Router: cached providers answer for
// free; misses delegate and cache the inner router's answer.
func (r *CachingRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	if cached := r.shared.Providers(c); len(cached) > 0 {
		if len(cached) > n {
			cached = cached[:n]
		}
		return cached, nil
	}
	infos, err := r.inner.SessionPeers(ctx, c, n)
	if err == nil {
		r.shared.PutProviders(c, infos)
	}
	return infos, err
}

// WantBroadcast implements routing.Router by delegating: the broadcast
// policy belongs to the underlying discovery stack.
func (r *CachingRouter) WantBroadcast() bool { return r.inner.WantBroadcast() }

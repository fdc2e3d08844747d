package core_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/multicodec"
	"repro/internal/routing"
	"repro/internal/simtime/simtest"
	"repro/internal/transport"
	"repro/internal/wire"
)

// stubFallback is a Router that spends no RPCs: it isolates the
// accelerated direct path so the consult-handoff regression test can
// count that path's traffic exactly.
type stubFallback struct{ finds atomic.Int32 }

func (s *stubFallback) Name() string { return "stub" }

func (s *stubFallback) Provide(context.Context, cid.Cid) (routing.ProvideResult, error) {
	return routing.ProvideResult{}, routing.ErrNoProviders
}

func (s *stubFallback) ProvideMany(_ context.Context, cids []cid.Cid) (routing.ProvideManyResult, error) {
	return routing.ProvideManyResult{CIDs: len(cids)}, routing.ErrNoProviders
}

func (s *stubFallback) FindProvidersStream(context.Context, cid.Cid) routing.ProviderSeq {
	return routing.LazyStream(func() ([]wire.PeerInfo, error) {
		s.finds.Add(1)
		return nil, routing.ErrNoProviders
	})
}

func (s *stubFallback) SessionPeers(context.Context, cid.Cid, int) ([]wire.PeerInfo, error) {
	return nil, routing.ErrNoSessionPeers
}

func (s *stubFallback) WantBroadcast() bool { return true }

// TestRetrieveHandsConsultMissToFindProviders is the end-to-end
// regression for the consult-result handoff: retrieving unpublished
// content through a one-hop router must probe the snapshot
// neighbourhood exactly once (the Bitswap session consult) — the
// follow-up FindProviders inherits the miss and goes straight to its
// fallback instead of re-sending the same RPC wave.
func TestRetrieveHandsConsultMissToFindProviders(t *testing.T) {
	tn := buildSmallNet(t, 30)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		getter := tn.AddVantage("US", 700)

		fb := &stubFallback{}
		accel := routing.NewAccelerated(getter.Swarm(), fb, routing.AcceleratedConfig{})
		const snapSize = 5
		var infos []wire.PeerInfo
		for _, n := range tn.Nodes[:snapSize] {
			infos = append(infos, n.Info())
		}
		accel.SetSnapshot(infos)
		getter.SetRouter(accel)

		before := tn.Net.Budget()
		_, res, err := getter.Retrieve(ctx, cid.Sum(multicodec.Raw, []byte("never published")))
		if !errors.Is(err, core.ErrNotFound) {
			t.Fatalf("retrieve err = %v, want ErrNotFound", err)
		}
		spent := tn.Net.Budget().Sub(before)

		// The session consult probes every snapshot peer once; the handoff
		// means FindProviders adds zero lookup RPCs on top. Without it the
		// same wave would go out twice.
		if got := spent.Category(transport.CatLookup); got != snapSize {
			t.Errorf("retrieval spent %d lookup RPCs, want exactly %d (one consult wave, no duplicate probe)", got, snapSize)
		}
		if fb.finds.Load() != 1 {
			t.Errorf("fallback consulted %d times, want 1", fb.finds.Load())
		}
		// The consult's RPCs still show up in the per-retrieval accounting.
		if res.LookupMsgs != snapSize {
			t.Errorf("LookupMsgs = %d, want the consult's %d RPCs", res.LookupMsgs, snapSize)
		}
	})
}

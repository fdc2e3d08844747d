package routing

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cid"
	"repro/internal/dht"
	"repro/internal/kbucket"
	"repro/internal/peer"
	"repro/internal/wire"
)

// DHTRouter adapts the iterative DHT walk of internal/dht to the Router
// interface — today's deployed behaviour, kept as the baseline every
// alternative is measured against.
type DHTRouter struct {
	d      *dht.DHT
	ledger *Ledger
}

// NewDHT wraps a DHT participant as a Router.
func NewDHT(d *dht.DHT) *DHTRouter { return &DHTRouter{d: d, ledger: NewLedger(d.Time().Now)} }

// Name implements Router.
func (r *DHTRouter) Name() string { return string(KindDHT) }

// DHT exposes the wrapped DHT.
func (r *DHTRouter) DHT() *dht.DHT { return r.d }

// Ledger exposes the republish ack ledger.
func (r *DHTRouter) Ledger() *Ledger { return r.ledger }

// Provide implements Router via the walk-then-store of §3.1, recording
// the walk's target set and the acked stores in the ack ledger so the
// next republish cycle can batch records per peer without re-walking.
func (r *DHTRouter) Provide(ctx context.Context, c cid.Cid) (ProvideResult, error) {
	res, err := r.d.Provide(ctx, c)
	if len(res.StoreTargets) > 0 {
		r.ledger.SetTargets(c.Key(), res.StoreTargets)
	}
	for _, t := range res.AckedTargets {
		r.ledger.Confirm(t, c.Key())
	}
	return res, err
}

// ProvideMany implements Router: reuse each CID's remembered target
// set (walking only for CIDs never published through this router),
// group the batch by target peer, and send one multi-record
// ADD_PROVIDER RPC per distinct target — the O(CIDs × walk) republish
// collapsed to O(distinct target peers).
func (r *DHTRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (ProvideManyResult, error) {
	walks := 0
	var walkInfo LookupInfo
	targetsOf := func(c cid.Cid) []wire.PeerInfo {
		key := c.Key()
		if targets := r.ledger.Targets(key); len(targets) > 0 {
			return targets
		}
		if ctx.Err() != nil {
			return nil
		}
		closest, winfo, err := r.d.WalkClosest(ctx, kbucket.KeyForBytes(c.Bytes()), c.Bytes())
		walks++
		walkInfo = mergeLookup(walkInfo, winfo)
		if err != nil || len(closest) == 0 {
			return nil
		}
		r.ledger.SetTargets(key, closest)
		return closest
	}
	res, provided := provideManyGrouped(ctx, r.d.Swarm(), r.d.Time(), storeTimeout, r.ledger, cids, targetsOf)
	res.Walks = walks
	res.Walk = walkInfo
	// Re-walk CIDs whose remembered target set failed to ack a single
	// record — the §3.1 point of republish is reassigning records when
	// holders churn away, so a dead target set must not pin a CID to
	// unreachable peers forever. Provide walks fresh and overwrites the
	// ledger's target set with the currently-live k closest.
	for _, c := range unprovided(cids, provided) {
		if ctx.Err() != nil {
			break
		}
		pres, err := r.Provide(ctx, c)
		res.Walks++
		res.Walk = mergeLookup(res.Walk, pres.Walk)
		res.StoreRPCs += pres.StoreAttempts
		res.Acked += pres.StoreOK
		if err == nil {
			res.Provided++
		}
	}
	if res.Provided == 0 && res.CIDs > 0 {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		return res, fmt.Errorf("routing: dht provide batch of %d: no records stored", res.CIDs)
	}
	return res, nil
}

// storeTimeout bounds one multi-record store RPC, matching the DHT's
// single-record store budget.
const storeTimeout = 60 * time.Second

// FindProvidersStream implements Router: the iterative walk of §3.2,
// yielding each record-carrying response's providers as it arrives.
// The consumer stopping at the first batch reproduces the deployed
// terminate-on-first-record behaviour; draining further turns later
// responses into fail-over candidates.
func (r *DHTRouter) FindProvidersStream(ctx context.Context, c cid.Cid) (ProviderSeq, *StreamInfo) {
	st := &StreamInfo{}
	seq := func(yield func([]wire.PeerInfo) bool) {
		emitted := false
		seen := make(map[peer.ID]bool)
		info := r.d.FindProvidersStream(ctx, c, func(batch []wire.PeerInfo) bool {
			batch = dedupProviders(seen, batch)
			if len(batch) == 0 {
				return true // all duplicates; keep walking
			}
			emitted = true
			return yield(batch)
		})
		var err error
		if !emitted {
			if err = ctx.Err(); err == nil {
				err = ErrNoProviders
			}
		}
		st.set(info, err)
	}
	return seq, st
}

// SessionPeers implements Router. The walk-based client has no provider
// knowledge short of the multi-hop lookup, so it declines: Bitswap
// keeps today's opportunistic broadcast and the walk stays the
// FindProviders fallback.
func (r *DHTRouter) SessionPeers(context.Context, cid.Cid, int) ([]wire.PeerInfo, int, error) {
	return nil, 0, ErrNoSessionPeers
}

// WantBroadcast implements Router: the deployed client broadcasts.
func (r *DHTRouter) WantBroadcast() bool { return true }

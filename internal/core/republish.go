package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/record"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// republisher tracks the CIDs this node provides so their records can
// be refreshed on the §3.1 cycle: "the republish interval, by default
// set to 12 h, to make sure that even if the original 20 peers ... go
// offline, the provider will assign new ones within 12 h".
type republisher struct {
	mu   sync.Mutex
	cids map[string]cid.Cid
}

func (r *republisher) track(c cid.Cid) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cids == nil {
		r.cids = make(map[string]cid.Cid)
	}
	r.cids[c.Key()] = c
}

// list returns the tracked CIDs sorted by key. The batch order decides
// the order of a republish cycle's walks and store RPCs, which a seeded
// event-driven run must replay; map iteration order would not.
func (r *republisher) list() []cid.Cid {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]cid.Cid, 0, len(r.cids))
	for _, c := range r.cids {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Provided returns the CIDs this node currently republishes, sorted by
// key.
func (n *Node) Provided() []cid.Cid { return n.repub.list() }

// RepublishStats summarizes one §3.1 republish cycle.
type RepublishStats struct {
	// Batch is the batched record refresh: the cycle's CIDs grouped by
	// target peer, one multi-record RPC per distinct target, with
	// ack-ledger skips for records confirmed earlier in the cycle.
	Batch routing.ProvideManyResult
	// RPCs counts the routing requests the batch launched, read off its
	// meter: walks for CIDs with no remembered targets, and stores.
	RPCs int
	// PeerRecordOK reports the node's peer-record refresh succeeded.
	PeerRecordOK bool
}

// RepublishRecords refreshes the provider records of every tracked CID
// through the router's batched publication surface: the whole batch is
// grouped by target peer (one multi-record ADD_PROVIDER RPC per
// distinct target), and targets that already confirmed a record this
// cycle — a publish minutes before the tick — are skipped via the ack
// ledger. Every RPC underneath is attributed to the republish budget
// category, so the simulator's network-wide report separates this
// background traffic from foreground lookups.
func (n *Node) RepublishRecords(ctx context.Context) routing.ProvideManyResult {
	cids := n.repub.list()
	if len(cids) == 0 {
		return routing.ProvideManyResult{}
	}
	ctx, sp := telemetry.StartSpan(ctx, "provide-many",
		telemetry.A("cids", fmt.Sprint(len(cids))))
	defer sp.End()
	ctx = transport.WithRPCCategory(ctx, transport.CatRepublish)
	res, _ := n.router.ProvideMany(ctx, cids)
	sp.Annotate("provided", fmt.Sprint(res.Provided))
	sp.Annotate("skipped-targets", fmt.Sprint(res.SkippedTargets))
	return res
}

// Republish runs one full republish cycle: the batched record refresh,
// then the node's peer record, then the ack-ledger cycle advance — so
// everything confirmed during this cycle goes stale together and the
// next cycle re-pushes it.
func (n *Node) Republish(ctx context.Context) RepublishStats {
	ctx, sp := n.tel.StartTrace(ctx, "republish", telemetry.A("router", n.router.Name()))
	defer sp.End()
	ctx = transport.WithRPCCategory(ctx, transport.CatRepublish)
	var st RepublishStats
	mctx, meter := transport.WithMeter(ctx)
	st.Batch = n.RepublishRecords(mctx)
	st.RPCs = meter.Count(wire.TFindNode, wire.TAddProvider)
	if err := n.dht.PublishPeerRecord(ctx); err == nil {
		st.PeerRecordOK = true
	}
	routing.AdvanceCycle(n.router)
	reg := n.tel.Registry()
	reg.Counter("republish_cycles").Inc()
	reg.Counter("republish_targets").Add(float64(st.Batch.Targets))
	reg.Counter("republish_skipped_targets").Add(float64(st.Batch.SkippedTargets))
	reg.Counter("republish_store_rpcs").Add(float64(st.Batch.StoreRPCs))
	return st
}

// StartRepublisher runs Republish on the given simulated interval
// (<= 0 selects the 12 h default) until ctx is cancelled. The first
// cycle is delayed by a per-peer deterministic jitter so republish
// cycles across a fleet desynchronize instead of thundering-herding
// the same ticks.
func (n *Node) StartRepublisher(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = record.DefaultRepublishInterval
	}
	jitter := simtime.Jitter(string(n.ident.ID)+"#republish", interval)
	simtime.Every(ctx, n.src, jitter+interval, interval, func(ctx context.Context) { n.Republish(ctx) })
}

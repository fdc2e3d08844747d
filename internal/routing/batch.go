package routing

import (
	"context"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/slab"
	"repro/internal/swarm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultAckFreshness bounds how old an ack may be and still suppress
// a re-push — conservatively far below every record TTL in the system
// (24 h provider records, shrunken test TTLs of a few hours), so a
// skipped re-push can never let a record expire.
const DefaultAckFreshness = time.Hour

// Ledger is a router's republish ack ledger. It remembers, per CID,
// which target peers acknowledged a record — and when — plus the CID's
// last known target set. ProvideMany
// consults it to (a) skip (target, CID) pairs already confirmed this
// cycle — a record published minutes before the republish tick is not
// pushed again — and (b) reuse the walk-derived target sets, so a
// steady-state republish cycle costs one multi-record RPC per distinct
// target peer and zero walks. An ack only counts as fresh while it is
// both from the current cycle and younger than the freshness bound:
// record TTLs must keep being reset, so a six-hour-old publish is
// re-pushed even though no cycle boundary passed. core.Node.Republish
// advances the cycle when it finishes, expiring the cycle's acks
// together.
//
// The ledger grows with every CID the node publishes, so it is laid
// out like the provider store: one slab chain per CID, one pointer-free
// slot per (CID, peer), each peer interned once with its addresses.
type Ledger struct {
	mu       sync.Mutex
	now      func() time.Time
	freshFor time.Duration
	acksOnly bool // skip target-set bookkeeping (gossip dedup ledgers)
	slots    *slab.Slab[ledgerSlot]
	peers    slab.Interner[peer.ID]
	addrs    [][]multiaddr.Multiaddr // by peer index: the addresses last offered with the peer
	acks     int
}

// ledgerSlot is what the ledger knows about one peer for one CID. The
// targets of a CID are its chain's target slots, in chain order. Advance
// drops every ack, so an ack that is present is the current cycle's.
type ledgerSlot struct {
	at     int64 // unix ns of the ack
	peer   uint32
	acked  bool
	target bool
}

// NewLedger creates an empty ack ledger. now supplies the clock for
// ack freshness (nil selects time.Now; simulations pass their movable
// clock).
func NewLedger(now func() time.Time) *Ledger {
	if now == nil {
		now = time.Now
	}
	return &Ledger{now: now, freshFor: DefaultAckFreshness, slots: slab.New[ledgerSlot]()}
}

// NewAckLedger creates a ledger that records acks only — no per-CID
// target sets. The gossip dedup path never replays target sets, and
// without Advance calls the target slots would otherwise grow with
// every CID ever gossiped; pair it with PruneStale to keep the acks
// bounded by one freshness window.
func NewAckLedger(now func() time.Time) *Ledger {
	l := NewLedger(now)
	l.acksOnly = true
	return l
}

// sweep drops the acks stale says are stale, and with them every slot
// that is then neither an ack nor a target.
func (l *Ledger) sweep(stale func(v *ledgerSlot) bool) {
	l.slots.Filter(func(v *ledgerSlot) bool {
		if v.acked && stale(v) {
			v.acked = false
			l.acks--
		}
		if !v.acked && !v.target {
			l.peers.Release(v.peer)
			return false
		}
		return true
	})
}

// PruneStale drops acks older than the freshness bound — they can
// never test Fresh again on the clock axis, so holding them only
// leaks memory. Cycle-expired acks are left for Advance.
func (l *Ledger) PruneStale() {
	l.mu.Lock()
	defer l.mu.Unlock()
	oldest := l.now().UnixNano() - int64(l.freshFor)
	l.sweep(func(v *ledgerSlot) bool { return v.at < oldest })
}

// Advance starts a new republish cycle: every ack recorded so far
// becomes stale, so the next ProvideMany re-pushes it. Stale acks are
// dropped outright — they can never test fresh again — bounding the
// ledger to one cycle's worth of acks plus the per-CID target sets.
func (l *Ledger) Advance() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sweep(func(*ledgerSlot) bool { return true })
}

// find returns the slot for (cidKey, peer index p), or slab.None.
func (l *Ledger) find(cidKey string, p uint32) uint32 {
	for i := l.slots.First(cidKey); i != slab.None; i = l.slots.Next(i) {
		if l.slots.At(i).peer == p {
			return i
		}
	}
	return slab.None
}

// slot returns the slot for (cidKey, t), adding it — and t to the
// interned peers — if it is new. Addresses offered with a peer replace
// the ones it was interned with.
func (l *Ledger) slot(cidKey string, t wire.PeerInfo) (uint32, *ledgerSlot) {
	p, known := l.peers.Lookup(t.ID)
	if known {
		if len(t.Addrs) > 0 {
			l.addrs[p] = t.Addrs
		}
		if i := l.find(cidKey, p); i != slab.None {
			return i, l.slots.At(i)
		}
	}
	p = l.peers.Acquire(t.ID)
	if !known {
		for int(p) >= len(l.addrs) {
			l.addrs = append(l.addrs, nil)
		}
		l.addrs[p] = t.Addrs
	}
	i := l.slots.Append(cidKey)
	v := l.slots.At(i)
	v.peer = p
	return i, v
}

// Confirm records that target acknowledged records for the given CID
// keys in the current cycle, and remembers it in each CID's target set.
func (l *Ledger) Confirm(target wire.PeerInfo, cidKeys ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at := l.now().UnixNano()
	for _, k := range cidKeys {
		i, v := l.slot(k, target)
		if !v.acked {
			v.acked = true
			l.acks++
		}
		v.at = at
		if !l.acksOnly && !v.target {
			v.target = true
			l.slots.MoveToTail(i)
		}
	}
}

// Fresh reports whether target acknowledged cidKey in the current
// cycle, recently enough that skipping the re-push cannot endanger the
// record's TTL.
func (l *Ledger) Fresh(target peer.ID, cidKey string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	p, ok := l.peers.Lookup(target)
	if !ok {
		return false
	}
	i := l.find(cidKey, p)
	if i == slab.None {
		return false
	}
	v := l.slots.At(i)
	return v.acked && l.now().UnixNano()-v.at <= int64(l.freshFor)
}

// Len returns how many acks the ledger currently holds (bounded-memory
// tests).
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acks
}

// SetTargets remembers a CID's computed target set (a walk's k closest
// peers), replacing any previous set.
func (l *Ledger) SetTargets(cidKey string, targets []wire.PeerInfo) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := l.slots.First(cidKey); i != slab.None; i = l.slots.Next(i) {
		l.slots.At(i).target = false
	}
	for _, t := range targets {
		i, v := l.slot(cidKey, t)
		v.target = true
		l.slots.MoveToTail(i)
	}
	// The new targets are the chain's tail; what is left in front of
	// them and holds no ack holds nothing.
	for i := l.slots.First(cidKey); i != slab.None; {
		v, next := l.slots.At(i), l.slots.Next(i)
		if v.target {
			break
		}
		if !v.acked {
			l.peers.Release(v.peer)
			l.slots.Remove(i)
		}
		i = next
	}
}

// Targets returns a CID's last known target set (peers that acked a
// store, or the last walk's closest set), or nil when unknown.
func (l *Ledger) Targets(cidKey string) []wire.PeerInfo {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []wire.PeerInfo
	for i := l.slots.First(cidKey); i != slab.None; i = l.slots.Next(i) {
		if v := l.slots.At(i); v.target {
			out = append(out, wire.PeerInfo{ID: l.peers.Value(v.peer), Addrs: l.addrs[v.peer]})
		}
	}
	return out
}

// ledgered is implemented by routers owning an ack ledger.
type ledgered interface {
	Ledger() *Ledger
}

// AdvanceCycle starts a new republish cycle on every ack ledger in the
// router stack (a ParallelRouter's members each own one).
// core.Node.Republish calls it after each cycle's ProvideMany, so acks
// recorded during the cycle — including first-time publishes since the
// previous cycle — expire together.
func AdvanceCycle(r Router) {
	switch v := r.(type) {
	case ledgered:
		v.Ledger().Advance()
	case *ParallelRouter:
		for _, m := range v.Members() {
			AdvanceCycle(m)
		}
	}
}

// batchSend is one multi-record store RPC: every not-yet-confirmed CID
// whose target set includes this peer.
type batchSend struct {
	target  wire.PeerInfo
	keys    [][]byte
	cidKeys []string
}

// batchPlan groups a CID batch by target peer.
type batchPlan struct {
	sends   []*batchSend
	targets int // distinct target peers (including fully-skipped ones)
	skipped int // targets skipped entirely: every record fresh this cycle
	// fresh marks CIDs with at least one ledger-fresh record — already
	// provided this cycle even if every send for them is skipped.
	fresh map[string]bool
}

// planBatch groups (cid, target-set) pairs by target peer, dropping
// pairs the ledger confirmed this cycle.
func planBatch(ledger *Ledger, cids []cid.Cid, targetsOf func(c cid.Cid) []wire.PeerInfo) *batchPlan {
	plan := &batchPlan{fresh: make(map[string]bool)}
	byTarget := make(map[peer.ID]*batchSend)
	touched := make(map[peer.ID]bool)
	for _, c := range cids {
		key := c.Key()
		for _, t := range targetsOf(c) {
			touched[t.ID] = true
			if ledger.Fresh(t.ID, key) {
				plan.fresh[key] = true
				continue
			}
			bs := byTarget[t.ID]
			if bs == nil {
				bs = &batchSend{target: t}
				byTarget[t.ID] = bs
				plan.sends = append(plan.sends, bs)
			}
			bs.keys = append(bs.keys, c.Bytes())
			bs.cidKeys = append(bs.cidKeys, key)
		}
	}
	plan.targets = len(touched)
	plan.skipped = plan.targets - len(plan.sends)
	return plan
}

// runBatch executes a batch plan: one concurrent multi-record
// ADD_PROVIDER RPC per target, recording acks in the ledger. It
// returns the RPC/ack counts and the set of CID keys with at least one
// acknowledged record.
func runBatch(ctx context.Context, sw *swarm.Swarm, src simtime.Source, timeout time.Duration, ledger *Ledger, plan *batchPlan) (rpcs, acked int, provided map[string]bool) {
	provided = make(map[string]bool)
	self := wire.PeerInfo{ID: sw.Local(), Addrs: sw.Addrs()}
	g := simtime.NewGroup(src)
	var mu sync.Mutex
	transport.MeterOf(ctx).Add(wire.TAddProvider, len(plan.sends))
	for _, bs := range plan.sends {
		bs := bs
		rpcs++
		g.Go(ctx, func(gctx context.Context) {
			req := wire.Message{
				Type:      wire.TAddProvider,
				Key:       bs.keys[0],
				Keys:      bs.keys[1:],
				Providers: []wire.PeerInfo{self},
			}
			rctx, cancel := src.WithTimeout(gctx, timeout)
			defer cancel()
			resp, err := sw.Request(rctx, bs.target.ID, bs.target.Addrs, req)
			if err != nil || resp.Type != wire.TAck {
				return
			}
			ledger.Confirm(bs.target, bs.cidKeys...)
			mu.Lock()
			acked++
			for _, k := range bs.cidKeys {
				provided[k] = true
			}
			mu.Unlock()
		})
	}
	g.Wait(ctx)
	return rpcs, acked, provided
}

// provideManyGrouped is the shared ProvideMany body: plan the batch
// against the ledger, run it, and fold ledger-fresh CIDs into the
// provided count. targetsOf supplies each CID's target set (walk
// result, snapshot neighbourhood, or indexer set).
func provideManyGrouped(ctx context.Context, sw *swarm.Swarm, src simtime.Source, timeout time.Duration, ledger *Ledger, cids []cid.Cid, targetsOf func(c cid.Cid) []wire.PeerInfo) (ProvideManyResult, map[string]bool) {
	var res ProvideManyResult
	res.CIDs = len(cids)
	plan := planBatch(ledger, cids, targetsOf)
	rpcs, acked, provided := runBatch(ctx, sw, src, timeout, ledger, plan)
	for k := range plan.fresh {
		provided[k] = true
	}
	res.Targets = plan.targets
	res.StoreRPCs = rpcs
	res.SkippedTargets = plan.skipped
	res.Acked = acked
	for _, c := range cids {
		if provided[c.Key()] {
			res.Provided++
		}
	}
	return res, provided
}

// unprovided returns the CIDs the batch failed to land a single record
// for — the subset a fallback router retries.
func unprovided(cids []cid.Cid, provided map[string]bool) []cid.Cid {
	var out []cid.Cid
	for _, c := range cids {
		if !provided[c.Key()] {
			out = append(out, c)
		}
	}
	return out
}

package routing

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"repro/internal/cid"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// ParallelRouter races its member routers and returns the first
// success, cancelling the losers — the paper's §6.2 "running DHT
// lookups in parallel to Bitswap could be superior" generalized to
// arbitrary discovery paths (walk vs one-hop snapshot vs indexer). It
// trades extra requests for latency, exactly the trade-off the paper
// frames.
type ParallelRouter struct {
	members []Router
	src     simtime.Source
}

// NewParallel builds a composite over the members; at least one is
// required. src is the time source of the node the members belong to
// (nil is the wall clock): the member races spawn and join through it,
// so under the event scheduler virtual time cannot run ahead of a racer.
func NewParallel(src simtime.Source, members ...Router) *ParallelRouter {
	return &ParallelRouter{members: members, src: simtime.OrWall(src)}
}

// Name implements Router, naming the members raced.
func (r *ParallelRouter) Name() string {
	names := make([]string, len(r.members))
	for i, m := range r.members {
		names[i] = m.Name()
	}
	return string(KindParallel) + "(" + strings.Join(names, "+") + ")"
}

// Members exposes the raced routers.
func (r *ParallelRouter) Members() []Router { return r.members }

// Provide implements Router: every member publishes concurrently and
// the first success wins, with the losers cancelled. Because the
// members push records to disjoint places (DHT neighbourhood, snapshot
// neighbourhood, indexer store), the winner alone satisfies the §3.1
// contract; the extra replicas the losers managed before cancellation
// are a bonus, never a correctness requirement. Every member's RPCs —
// winners, cancelled losers, and outright failures — are charged onto
// the returned result so the race's extra-requests-for-latency
// trade-off shows up in the message accounting even when the whole
// race fails.
func (r *ParallelRouter) Provide(ctx context.Context, c cid.Cid) (ProvideResult, error) {
	if len(r.members) == 0 {
		return ProvideResult{}, fmt.Errorf("routing: parallel provide %s: no members", c)
	}
	type outcome struct {
		res ProvideResult
		err error
		sp  *telemetry.Span
	}
	pctx, cancel := r.src.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, len(r.members))
	for _, m := range r.members {
		// The race spans open serially here (deterministic IDs) and are
		// closed by the racers themselves — cancelled losers included —
		// before they deposit, so no span is open once the race is joined.
		mctx, sp := telemetry.StartSpan(pctx, "race:"+m.Name())
		m := m
		r.src.Go(mctx, func(gctx context.Context) {
			res, err := m.Provide(gctx, c)
			sp.End()
			ch <- outcome{res: res, err: err, sp: sp}
		})
	}
	// Every racer deposits exactly once into the buffered channel, so
	// the collect loop drains detached from ctx — cancelled losers
	// unwind promptly and still get their RPCs charged.
	var firstErr error
	loserMsgs := 0
	for i := 0; i < len(r.members); i++ {
		o, ok := simtime.Recv(simtime.Detach(ctx), r.src, ch)
		if !ok {
			break
		}
		if o.err == nil {
			cancel()
			o.sp.Annotate("won", "true") // the publication's phases are the winner's
			// Drain the cancelled losers (they return promptly once the
			// context falls) and charge the RPCs they managed to launch.
			for j := i + 1; j < len(r.members); j++ {
				lo, ok := simtime.Recv(simtime.Detach(ctx), r.src, ch)
				if !ok {
					break
				}
				loserMsgs += ProvideMessages(lo.res)
			}
			o.res.Walk.Launched = LookupMessages(o.res.Walk) + loserMsgs
			return o.res, nil
		}
		loserMsgs += ProvideMessages(o.res)
		if firstErr == nil {
			firstErr = o.err
		}
	}
	// Every member failed: the race's RPCs still went out, so they are
	// returned in the result rather than vanishing from the accounting.
	return ProvideResult{Walk: LookupInfo{Launched: loserMsgs}}, firstErr
}

// ProvideMany implements Router: the batch fans out to every member
// concurrently — records must be refreshed in each member's disjoint
// record store (DHT neighbourhood, snapshot neighbourhood, indexer),
// so a republish cannot race-and-cancel the way Provide does without
// letting the losers' replicas decay. The aggregated result sums every
// member's RPCs; Provided is the best member's count (a CID is
// reachable if any member landed it).
func (r *ParallelRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (ProvideManyResult, error) {
	if len(r.members) == 0 {
		return ProvideManyResult{}, fmt.Errorf("routing: parallel provide batch of %d: no members", len(cids))
	}
	type outcome struct {
		res ProvideManyResult
		err error
	}
	ch := make(chan outcome, len(r.members))
	for _, m := range r.members {
		mctx, sp := telemetry.StartSpan(ctx, "race:"+m.Name())
		m := m
		r.src.Go(mctx, func(gctx context.Context) {
			res, err := m.ProvideMany(gctx, cids)
			sp.End()
			ch <- outcome{res: res, err: err}
		})
	}
	res := ProvideManyResult{CIDs: len(cids)}
	var firstErr error
	ok := false
	for i := 0; i < len(r.members); i++ {
		o, got := simtime.Recv(simtime.Detach(ctx), r.src, ch)
		if !got {
			break
		}
		res = res.merge(o.res)
		if o.res.Provided > res.Provided {
			res.Provided = o.res.Provided
		}
		if o.err == nil {
			ok = true
		} else if firstErr == nil {
			firstErr = o.err
		}
	}
	if !ok {
		return res, firstErr
	}
	return res, nil
}

// SessionPeers implements Router: members race their cheap candidate
// lookups and the first non-empty answer wins, with losers cancelled
// and their RPCs charged onto the reported message count. Members with
// no session knowledge (the walk baseline) decline instantly, so the
// race degenerates to the one-hop members.
func (r *ParallelRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, int, error) {
	if len(r.members) == 0 {
		return nil, 0, fmt.Errorf("routing: parallel session peers %s: no members", c)
	}
	type outcome struct {
		peers []wire.PeerInfo
		msgs  int
		err   error
	}
	pctx, cancel := r.src.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, len(r.members))
	for _, m := range r.members {
		mctx, sp := telemetry.StartSpan(pctx, "race:"+m.Name())
		m := m
		r.src.Go(mctx, func(gctx context.Context) {
			peers, msgs, err := m.SessionPeers(gctx, c, n)
			sp.End()
			ch <- outcome{peers: peers, msgs: msgs, err: err}
		})
	}
	msgs := 0
	for i := 0; i < len(r.members); i++ {
		o, ok := simtime.Recv(simtime.Detach(ctx), r.src, ch)
		if !ok {
			break
		}
		msgs += o.msgs
		if o.err == nil && len(o.peers) > 0 {
			cancel()
			// Drain the cancelled losers and charge their RPCs.
			for j := i + 1; j < len(r.members); j++ {
				lo, ok := simtime.Recv(simtime.Detach(ctx), r.src, ch)
				if !ok {
					break
				}
				msgs += lo.msgs
			}
			return o.peers, msgs, nil
		}
	}
	return nil, msgs, ErrNoSessionPeers
}

// WantBroadcast implements Router: the composite broadcasts when any
// member would — racing the broadcast against the routed candidates is
// exactly the extra-requests-for-latency trade the parallel router
// makes.
func (r *ParallelRouter) WantBroadcast() bool {
	for _, m := range r.members {
		if m.WantBroadcast() {
			return true
		}
	}
	return false
}

// FindProvidersStream implements Router by merging the member streams:
// every member's lookup runs concurrently and each provider batch is
// yielded (deduplicated) in arrival order — the first batch from any
// member is the race winner, and slower members' partial results
// become fail-over candidates instead of being discarded with the
// losers. The aggregated statistics charge every member's RPCs,
// cancelled losers included.
//
// Member streams deposit batches into a mutex-guarded queue — producers
// never block, which keeps the scheduler's quiescence detection sound —
// and the single consumer parks until a batch or a member completion is
// available. Under the scheduler arrival order is the event order, so
// seeded runs replay the same merge.
func (r *ParallelRouter) FindProvidersStream(ctx context.Context, c cid.Cid) (ProviderSeq, *StreamInfo) {
	st := &StreamInfo{}
	seq := func(yield func([]wire.PeerInfo) bool) {
		if len(r.members) == 0 {
			st.set(LookupInfo{}, fmt.Errorf("routing: parallel find %s: no members", c))
			return
		}
		pctx, cancel := r.src.WithCancel(ctx)
		defer cancel()
		var mu sync.Mutex
		var pending [][]wire.PeerInfo
		done := make(chan *StreamInfo, len(r.members))
		sig := simtime.NewSignal(r.src)
		for _, m := range r.members {
			mctx, sp := telemetry.StartSpan(pctx, "race:"+m.Name())
			m := m
			r.src.Go(mctx, func(gctx context.Context) {
				mseq, mst := m.FindProvidersStream(gctx, c)
				mseq(func(batch []wire.PeerInfo) bool {
					if gctx.Err() != nil {
						return false
					}
					mu.Lock()
					pending = append(pending, batch)
					mu.Unlock()
					sig.Notify()
					return true
				})
				// The span ends before the completion is visible, so none
				// is open once the consumer has joined every member.
				sp.End()
				done <- mst
				sig.Notify()
			})
		}
		queued := func() int {
			mu.Lock()
			defer mu.Unlock()
			return len(pending)
		}
		pop := func() ([]wire.PeerInfo, bool) {
			mu.Lock()
			defer mu.Unlock()
			if len(pending) == 0 {
				return nil, false
			}
			b := pending[0]
			pending = pending[1:]
			return b, true
		}
		seen := make(map[peer.ID]bool)
		emitted, stopped := false, false
		drain := func() {
			for {
				b, ok := pop()
				if !ok {
					return
				}
				b = dedupProviders(seen, b)
				if len(b) == 0 || stopped {
					continue
				}
				emitted = true
				if !yield(b) {
					stopped = true
					cancel()
				}
			}
		}
		finished := 0
		var agg LookupInfo
		var firstErr error
		// The consumer must join every member (their infos carry the RPC
		// accounting), so the wait runs detached from pctx: cancelled
		// members unwind promptly and deposit into the buffered done
		// channel.
		dctx := simtime.Detach(pctx)
		for finished < len(r.members) {
			if err := sig.Wait(dctx, func() bool { return queued() > 0 || len(done) > 0 }); err != nil {
				break // scheduler shut down underneath us
			}
			drain()
			for len(done) > 0 {
				mst := <-done
				finished++
				agg = mergeLookup(agg, mst.Info())
				if err := mst.Err(); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		drain() // batches deposited between the last wake and the last join
		var err error
		if !emitted {
			if err = firstErr; err == nil {
				err = ErrNoProviders
			}
		}
		st.set(agg, err)
	}
	return seq, st
}

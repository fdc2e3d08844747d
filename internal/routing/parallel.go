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
	}
	outs, won := race(ctx, r.src, r.members, func(gctx context.Context, m Router) outcome {
		res, err := m.Provide(gctx, c)
		return outcome{res: res, err: err}
	}, func(o outcome) bool { return o.err == nil })
	var firstErr error
	loserMsgs := 0
	for i, o := range outs {
		if i == won {
			continue
		}
		loserMsgs += ProvideMessages(o.v.res)
		if firstErr == nil {
			firstErr = o.v.err
		}
	}
	if won < 0 {
		// Every member failed: the race's RPCs still went out, so they are
		// returned in the result rather than vanishing from the accounting.
		return ProvideResult{Walk: LookupInfo{Launched: loserMsgs}}, firstErr
	}
	outs[won].sp.Annotate("won", "true") // the publication's phases are the winner's
	res := outs[won].v.res
	res.Walk.Launched = LookupMessages(res.Walk) + loserMsgs
	return res, nil
}

// raced is one racer's outcome and the span it ran under.
type raced[T any] struct {
	v  T
	sp *telemetry.Span
}

// race runs call on every member concurrently, each under its own
// "race:<member>" span, and cancels the others once an outcome wins;
// with a wins that never fires every member runs to the end.
// It joins every racer before returning — detached from ctx, since each
// deposits exactly once into the buffered channel and cancelled losers
// unwind promptly — so the losers' RPCs can still be charged. It
// returns the outcomes in arrival order and the winner's index, -1
// when none won.
func race[T any](ctx context.Context, src simtime.Source, members []Router, call func(context.Context, Router) T, wins func(T) bool) ([]raced[T], int) {
	pctx, cancel := src.WithCancel(ctx)
	defer cancel()
	ch := make(chan raced[T], len(members))
	for _, m := range members {
		// The race spans open serially here (deterministic IDs) and are
		// closed by the racers themselves — cancelled losers included —
		// before they deposit, so no span is open once the race is joined.
		mctx, sp := telemetry.StartSpan(pctx, "race:"+m.Name())
		m := m
		src.Go(mctx, func(gctx context.Context) {
			v := call(gctx, m)
			sp.End()
			ch <- raced[T]{v: v, sp: sp}
		})
	}
	var outs []raced[T]
	won := -1
	for range members {
		o, ok := simtime.Recv(simtime.Detach(ctx), src, ch)
		if !ok {
			break
		}
		if won < 0 && wins(o.v) {
			won = len(outs)
			cancel()
		}
		outs = append(outs, o)
	}
	return outs, won
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
	outs, _ := race(ctx, r.src, r.members, func(gctx context.Context, m Router) outcome {
		res, err := m.ProvideMany(gctx, cids)
		return outcome{res: res, err: err}
	}, func(outcome) bool { return false })
	res := ProvideManyResult{CIDs: len(cids)}
	var firstErr error
	ok := false
	for _, o := range outs {
		res = res.merge(o.v.res)
		res.Provided = max(res.Provided, o.v.res.Provided)
		if o.v.err == nil {
			ok = true
		} else if firstErr == nil {
			firstErr = o.v.err
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
	outs, won := race(ctx, r.src, r.members, func(gctx context.Context, m Router) outcome {
		peers, msgs, err := m.SessionPeers(gctx, c, n)
		return outcome{peers: peers, msgs: msgs, err: err}
	}, func(o outcome) bool { return o.err == nil && len(o.peers) > 0 })
	msgs := 0
	for _, o := range outs {
		msgs += o.v.msgs
	}
	if won < 0 {
		return nil, msgs, ErrNoSessionPeers
	}
	return outs[won].v.peers, msgs, nil
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

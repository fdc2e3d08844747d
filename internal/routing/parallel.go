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
// are a bonus, never a correctness requirement. The result is the
// winner's; every member's requests — winners, cancelled losers and
// outright failures — count into the operation's meter, so the race's
// extra-requests-for-latency trade-off shows in the publication's
// request count even when the whole race fails.
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
	if won < 0 {
		var err error // every member failed: report the first to finish
		if len(outs) > 0 {
			err = outs[0].v.err
		}
		return ProvideResult{}, err
	}
	outs[won].sp.Annotate("won", "true") // the publication's phases are the winner's
	return outs[won].v.res, nil
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
// unwind promptly — so no racer outlives the call. It returns the
// outcomes in arrival order and the winner's index, -1 when none won.
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
// member's targets and stores; Provided is the best member's count (a
// CID is reachable if any member landed it).
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
// lookups and the first non-empty answer wins, with losers cancelled.
// Members with no session knowledge (the walk baseline) decline
// instantly, so the race degenerates to the one-hop members.
func (r *ParallelRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	if len(r.members) == 0 {
		return nil, fmt.Errorf("routing: parallel session peers %s: no members", c)
	}
	type outcome struct {
		peers []wire.PeerInfo
		err   error
	}
	outs, won := race(ctx, r.src, r.members, func(gctx context.Context, m Router) outcome {
		peers, err := m.SessionPeers(gctx, c, n)
		return outcome{peers: peers, err: err}
	}, func(o outcome) bool { return o.err == nil && len(o.peers) > 0 })
	if won < 0 {
		return nil, ErrNoSessionPeers
	}
	return outs[won].v.peers, nil
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
// losers.
//
// Member streams deposit batches into a mutex-guarded queue — producers
// never block, which keeps the scheduler's quiescence detection sound —
// and the single consumer parks until a batch or a member completion is
// available. Under the scheduler arrival order is the event order, so
// seeded runs replay the same merge.
func (r *ParallelRouter) FindProvidersStream(ctx context.Context, c cid.Cid) ProviderSeq {
	return func(yield func([]wire.PeerInfo) bool) error {
		if len(r.members) == 0 {
			return fmt.Errorf("routing: parallel find %s: no members", c)
		}
		pctx, cancel := r.src.WithCancel(ctx)
		defer cancel()
		var mu sync.Mutex
		var pending [][]wire.PeerInfo
		done := make(chan error, len(r.members))
		sig := simtime.NewSignal(r.src)
		for _, m := range r.members {
			mctx, sp := telemetry.StartSpan(pctx, "race:"+m.Name())
			m := m
			r.src.Go(mctx, func(gctx context.Context) {
				err := m.FindProvidersStream(gctx, c)(func(batch []wire.PeerInfo) bool {
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
				done <- err
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
		var firstErr error
		// The consumer joins every member, so the wait runs detached from
		// pctx: cancelled members unwind promptly and deposit into the
		// buffered done channel.
		dctx := simtime.Detach(pctx)
		for finished < len(r.members) {
			if err := sig.Wait(dctx, func() bool { return queued() > 0 || len(done) > 0 }); err != nil {
				break // scheduler shut down underneath us
			}
			drain()
			for len(done) > 0 {
				finished++
				if err := <-done; err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
		drain() // batches deposited between the last wake and the last join
		if emitted {
			return nil
		}
		if firstErr != nil {
			return firstErr
		}
		return ErrNoProviders
	}
}

package routing_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// detachedRouter shields its inner router from race cancellation
// (context.WithoutCancel), so a "losing" member deterministically
// completes its RPCs — the accounting tests need the loser's cost to
// actually hit the network.
type detachedRouter struct{ inner routing.Router }

func (d detachedRouter) Name() string { return d.inner.Name() }

func (d detachedRouter) Provide(ctx context.Context, c cid.Cid) (routing.ProvideResult, error) {
	return d.inner.Provide(context.WithoutCancel(ctx), c)
}

func (d detachedRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (routing.ProvideManyResult, error) {
	return d.inner.ProvideMany(context.WithoutCancel(ctx), cids)
}

func (d detachedRouter) FindProvidersStream(ctx context.Context, c cid.Cid) routing.ProviderSeq {
	return d.inner.FindProvidersStream(context.WithoutCancel(ctx), c)
}

func (d detachedRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	return d.inner.SessionPeers(context.WithoutCancel(ctx), c, n)
}

func (d detachedRouter) WantBroadcast() bool { return d.inner.WantBroadcast() }

// TestParallelRaceChargesLosersAgainstBudget is the regression test
// for raced-RPC under-counting: the requests an operation's meter
// counts through a ParallelRouter — for the winner path and the
// all-fail path, lookup and publication alike — must match what the
// simulated network actually saw in simnet's budget.
func TestParallelRaceChargesLosersAgainstBudget(t *testing.T) {
	tn := buildCleanNet(t, 40, 81)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {

		// Two single-indexer routers: every operation costs exactly one RPC
		// per member, so the totals are deterministic. The second member is
		// detached so losing the race cannot suppress its RPC.
		ixHit := tn.AddIndexer("US", 810)
		ixMiss := tn.AddIndexer("DE", 811)
		node := tn.AddVantage("US", 812)
		mkRouter := func(ix wire.PeerInfo) routing.Router {
			return routing.NewIndexerRouter(node.Swarm(), oneShard(ix), nil,
				routing.IndexerRouterConfig{})
		}
		hit := mkRouter(ixHit.Info())
		miss := detachedRouter{inner: mkRouter(ixMiss.Info())}

		c := testCid("raced content")
		publisher := tn.AddVantage("DE", 813)
		pubR := routing.NewIndexerRouter(publisher.Swarm(), oneShard(ixHit.Info()), nil,
			routing.IndexerRouterConfig{})
		if _, err := pubR.Provide(ctx, c); err != nil {
			t.Fatalf("seed provide: %v", err)
		}

		r := routing.NewParallel(tn.Sched, hit, miss)

		// Winner path: the hit member answers in one RPC, the cancelled
		// loser's RPC must still be charged and must equal the budget.
		before := tn.Net.Budget()
		_, got, err := findProviders(ctx, r, c)
		if err != nil {
			t.Fatalf("FindProviders: %v", err)
		}
		spent := tn.Net.Budget().Sub(before).Requests
		if int64(got) != spent {
			t.Errorf("race counted %d lookup msgs, network saw %d — losers under-counted", got, spent)
		}
		if spent != 2 {
			t.Errorf("network saw %d requests, want 2 (winner + detached loser)", spent)
		}

		// All-fail path: both members miss; the reported cost must still
		// cover every raced RPC instead of vanishing with the error.
		missCid := testCid("never published")
		before = tn.Net.Budget()
		_, got, err = findProviders(ctx, r, missCid)
		if !errors.Is(err, routing.ErrNoProviders) {
			t.Fatalf("miss err = %v, want ErrNoProviders", err)
		}
		spent = tn.Net.Budget().Sub(before).Requests
		if int64(got) != spent || spent != 2 {
			t.Errorf("all-fail race counted %d msgs, network saw %d, want 2", got, spent)
		}

		// Provide winner path: both members store one record each; the
		// drained loser's store is charged.
		pc := testCid("raced publication")
		before = tn.Net.Budget()
		mctx, meter := transport.WithMeter(ctx)
		if _, err := r.Provide(mctx, pc); err != nil {
			t.Fatalf("Provide: %v", err)
		}
		spent = tn.Net.Budget().Sub(before).Requests
		if got := meter.Count(wire.TFindNode, wire.TAddProvider); int64(got) != spent || spent != 2 {
			t.Errorf("raced provide counted %d msgs, network saw %d, want 2", got, spent)
		}
	})
}

// TestParallelProvideAllFailKeepsCost pins the all-fail Provide
// accounting: when every raced member fails, the RPCs they spent still
// count in the publication's meter.
func TestParallelProvideAllFailKeepsCost(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		a := &fakeRouter{src: s, name: "a", delay: time.Millisecond, err: errors.New("a down"), provideSpend: 5}
		b := &fakeRouter{src: s, name: "b", delay: 2 * time.Millisecond, err: errors.New("b down"), provideSpend: 5}
		mctx, meter := transport.WithMeter(ctx)
		if _, err := routing.NewParallel(s, a, b).Provide(mctx, testCid("x")); err == nil {
			t.Fatal("want error when every member fails")
		}
		if got := meter.Count(wire.TFindNode); got != 10 {
			t.Errorf("all-fail provide counted %d msgs, want 10 (both members' spend)", got)
		}
	})
}

// TestParallelStreamKeepsLosersPartialResults is the streaming-merge
// contract: draining the composite stream past the winner's batch
// yields the slower members' providers too, instead of discarding them
// with the cancelled losers.
func TestParallelStreamKeepsLosersPartialResults(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		fast := &fakeRouter{src: s, name: "fast", delay: time.Millisecond, provider: peer.ID("winner")}
		slow := &fakeRouter{src: s, name: "slow", delay: 20 * time.Millisecond, provider: peer.ID("straggler")}
		r := routing.NewParallel(s, fast, slow)

		var got []peer.ID
		err := r.FindProvidersStream(ctx, testCid("merge"))(func(batch []wire.PeerInfo) bool {
			for _, p := range batch {
				got = append(got, p.ID)
			}
			return true // keep draining: the straggler's result must arrive
		})
		if err != nil {
			t.Fatalf("stream err = %v", err)
		}
		if len(got) != 2 || got[0] != peer.ID("winner") || got[1] != peer.ID("straggler") {
			t.Fatalf("streamed providers = %v, want winner then straggler", got)
		}

		// Stopping at the first batch cancels the straggler instead.
		slow2 := &fakeRouter{src: s, name: "slow2", delay: time.Minute, provider: peer.ID("late")}
		seq := routing.NewParallel(s, fast, slow2).FindProvidersStream(ctx, testCid("merge2"))
		start := s.Stamp()
		seq(func([]wire.PeerInfo) bool { return false })
		if took := s.Since(start); took != time.Millisecond {
			t.Fatalf("the stopped stream took %v, want the fast member's 1ms: stopping did not cancel the slow member", took)
		}
		if !slow2.cancelled.Load() {
			t.Error("slow member not cancelled after the consumer stopped")
		}
	})
}

// batchMember scripts a member's ProvideMany: after the fakeRouter's
// delay it returns res, and the fakeRouter's err.
type batchMember struct {
	*fakeRouter
	res routing.ProvideManyResult
}

func (b *batchMember) ProvideMany(ctx context.Context, _ []cid.Cid) (routing.ProvideManyResult, error) {
	err := b.wait(ctx)
	return b.res, err
}

// TestParallelProvideManyFansOut pins the batch fan-out: every member
// runs to the end, a failing member does not fail the batch, the RPC
// counts are summed over every member, Provided is the best member's,
// an all-fail batch returns the first error to arrive, and no race
// span is left open.
func TestParallelProvideManyFansOut(t *testing.T) {
	cids := batchCids(10, "fan-out ")
	member := func(s *simtime.Scheduler, name string, delay time.Duration, err error, res routing.ProvideManyResult) *batchMember {
		res.CIDs = len(cids)
		return &batchMember{fakeRouter: &fakeRouter{src: s, name: name, delay: delay, err: err}, res: res}
	}
	cases := []struct {
		name    string
		members func(s *simtime.Scheduler) []*batchMember
		want    routing.ProvideManyResult
		wantErr string
	}{
		{"one member fails", func(s *simtime.Scheduler) []*batchMember {
			return []*batchMember{
				member(s, "walk", 3*time.Second, nil, routing.ProvideManyResult{Provided: 6, Targets: 4, StoreRPCs: 4, Acked: 3}),
				member(s, "snapshot", time.Second, nil, routing.ProvideManyResult{Provided: 9, Targets: 2, StoreRPCs: 2, Acked: 2}),
				member(s, "indexer", 2*time.Second, errors.New("indexer down"), routing.ProvideManyResult{Targets: 1, StoreRPCs: 1}),
			}
		}, routing.ProvideManyResult{CIDs: 10, Provided: 9, Targets: 7, StoreRPCs: 7, Acked: 5}, ""},
		{"every member fails", func(s *simtime.Scheduler) []*batchMember {
			return []*batchMember{
				member(s, "walk", 2*time.Second, errors.New("walk failed"), routing.ProvideManyResult{Targets: 3, StoreRPCs: 3}),
				member(s, "indexer", time.Second, errors.New("indexer down"), routing.ProvideManyResult{Targets: 1, StoreRPCs: 1}),
			}
		}, routing.ProvideManyResult{CIDs: 10, Targets: 4, StoreRPCs: 4}, "indexer down"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
				ctx, root := telemetry.NewRecorder(s).StartTrace(ctx, "republish")
				tr := telemetry.TraceFrom(ctx)
				members := tc.members(s)
				routers := make([]routing.Router, len(members))
				for i, m := range members {
					routers[i] = m
				}
				res, err := routing.NewParallel(s, routers...).ProvideMany(ctx, cids)
				if tc.wantErr == "" && err != nil {
					t.Errorf("ProvideMany: %v, want the batch to succeed", err)
				}
				if tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
					t.Errorf("ProvideMany err = %v, want %q", err, tc.wantErr)
				}
				if res != tc.want {
					t.Errorf("result = %+v, want %+v", res, tc.want)
				}
				for _, m := range members {
					if m.calls.Load() != 1 || m.cancelled.Load() {
						t.Errorf("member %s: %d calls, cancelled %v; want one call run to the end", m.name, m.calls.Load(), m.cancelled.Load())
					}
				}
				root.End()
				if open := tr.OpenSpans(); open != 0 {
					t.Errorf("OpenSpans = %d after root.End, want 0", open)
				}
			})
		})
	}
}

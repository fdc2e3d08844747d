package routing_test

import (
	"context"
	"errors"
	"fmt"
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

// timedBatch is one scripted provider batch: yielded after its own
// simulated delay.
type timedBatch struct {
	after time.Duration
	ids   []peer.ID
}

// scriptedMember is a race member whose provider stream yields scripted
// batches at scripted instants on src and then ends with err (an
// exhausted lookup when nil), counting one lookup request into the
// operation's meter as its final act. A deaf member never observes
// cancellation: it keeps sleeping and yielding after the race was
// called off.
type scriptedMember struct {
	*fakeRouter
	src     simtime.Source
	batches []timedBatch
	err     error
	deaf    bool
}

func (m *scriptedMember) FindProvidersStream(ctx context.Context, _ cid.Cid) routing.ProviderSeq {
	if m.deaf {
		ctx = context.WithoutCancel(ctx)
	}
	end := routing.LazyStream(func() ([]wire.PeerInfo, error) {
		transport.MeterOf(ctx).Add(wire.TGetProviders, 1)
		return nil, m.err
	})
	return func(yield func([]wire.PeerInfo) bool) error {
		for _, b := range m.batches {
			if m.src.Sleep(ctx, b.after) != nil {
				break
			}
			var infos []wire.PeerInfo
			for _, id := range b.ids {
				infos = append(infos, wire.PeerInfo{ID: id})
			}
			if !yield(infos) {
				break
			}
		}
		return end(yield)
	}
}

// TestParallelStreamMerge pins the one merge FindProvidersStream is
// written on, with the same outcome on the scheduler and on the wall
// clock: the winner's batch
// first, duplicates dropped, every member joined (its RPCs counted, its
// race span closed) before the stream returns, and nothing accepted from
// a member after the race was called off. On the scheduler the virtual
// duration is exact.
func TestParallelStreamMerge(t *testing.T) {
	simtest.BothEngines(t, testParallelStreamMerge)
}

func testParallelStreamMerge(t *testing.T, ctx context.Context, src simtime.Source, u time.Duration) {
	// Ten units apart: 10 ms of real time each on the wall clock, where
	// arrival order is the host's to decide.
	sec := 10 * u
	e1, e2 := errors.New("first member down"), errors.New("second member down")
	cases := []struct {
		name    string
		members []scriptedMember
		take    int       // batches the consumer accepts before stopping (0: all)
		want    []peer.ID // providers yielded, in order
		err     error     // the stream's terminal error
		took    time.Duration
	}{{
		name: "the fast member wins and the consumer stops",
		members: []scriptedMember{
			{batches: []timedBatch{{1 * sec, []peer.ID{"w"}}}},
			{batches: []timedBatch{{500 * sec, []peer.ID{"l"}}}},
		},
		take: 1, want: []peer.ID{"w"}, took: 1 * sec,
	}, {
		name: "every member fails: the first error is reported",
		members: []scriptedMember{
			{batches: []timedBatch{{2 * sec, nil}}, err: e2},
			{batches: []timedBatch{{1 * sec, nil}}, err: e1},
		},
		err: e1, took: 2 * sec,
	}, {
		name: "duplicates across members are dropped",
		members: []scriptedMember{
			{batches: []timedBatch{{1 * sec, []peer.ID{"x"}}, {3 * sec, []peer.ID{"y"}}}},
			{batches: []timedBatch{{sec * 5 / 2, []peer.ID{"x", "z"}}}},
		},
		want: []peer.ID{"x", "z", "y"}, took: 4 * sec,
	}, {
		name: "a member that yields after the race was called off is ignored",
		members: []scriptedMember{
			{batches: []timedBatch{{1 * sec, []peer.ID{"w"}}}},
			{batches: []timedBatch{{3 * sec, []peer.ID{"late"}}}, deaf: true},
		},
		take: 1, want: []peer.ID{"w"}, took: 3 * sec,
	}}
	for _, tc := range cases {
		members := make([]routing.Router, len(tc.members))
		for i := range tc.members {
			m := tc.members[i]
			m.fakeRouter, m.src = &fakeRouter{name: fmt.Sprint("m", i)}, src
			members[i] = &m
		}
		tctx, root := telemetry.NewRecorder(src).StartTrace(ctx, "retrieve")
		mctx, meter := transport.WithMeter(tctx)
		start := src.Stamp()
		var got []peer.ID
		batches := 0
		err := routing.NewParallel(src, members...).FindProvidersStream(mctx, testCid(tc.name))(func(batch []wire.PeerInfo) bool {
			for _, p := range batch {
				got = append(got, p.ID)
			}
			batches++
			return batches != tc.take
		})
		took := src.Since(start)

		if fmt.Sprintf("%q", got) != fmt.Sprintf("%q", tc.want) {
			t.Errorf("%s: providers = %q, want %q", tc.name, got, tc.want)
		}
		if !errors.Is(err, tc.err) || (tc.err == nil) != (err == nil) {
			t.Errorf("%s: stream error = %v, want %v", tc.name, err, tc.err)
		}
		if q := meter.Count(wire.TGetProviders); q != len(members) {
			t.Errorf("%s: %d members' lookups counted, want all %d", tc.name, q, len(members))
		}
		// Only the root may still be open: every racer ended its span
		// before the merge could see it finished.
		if open := telemetry.TraceFrom(tctx).OpenSpans(); open != 1 {
			t.Errorf("%s: %d spans open when the stream returned, want the root alone", tc.name, open)
		}
		root.End()
		if simtime.SchedulerOf(src) != nil && took != tc.took {
			t.Errorf("%s: took %v of virtual time, want exactly %v", tc.name, took, tc.took)
		}
	}
}

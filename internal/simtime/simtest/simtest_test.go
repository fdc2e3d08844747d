package simtest_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
)

// ledger is the planted order bug: an at-most-once publisher that
// checks its ledger, parks for the publish RPC, and only then writes
// the ledger. The RPC's remote end answers by asking for a republish of
// the same key, on a goroutine of its own. In registration order the
// publisher resumes first — it parked before the republish was spawned
// — and has written the ledger by the time the republish checks it; an
// order that runs the republish first publishes the key twice.
type ledger struct {
	s         *simtime.Scheduler
	published map[int]int
}

func (l *ledger) publish(ctx context.Context, key int, echo bool) {
	if l.published[key] > 0 { // check
		return
	}
	rpc := simtime.NewGroup(l.s)
	rpc.Go(ctx, func(ctx context.Context) { // the remote end
		if echo {
			l.s.Go(ctx, func(ctx context.Context) { l.publish(ctx, key, false) })
		}
	})
	rpc.Wait(ctx)      // park
	l.published[key]++ // act
}

// plant runs program seed's workload — a few keys published at
// colliding instants among bystanders that sleep and spawn at the same
// instants — on a fresh scheduler, perturbed by schedule seed sched
// unless it is 0. It returns the ledger and the keys published twice.
func plant(t *testing.T, prog, sched int64) (string, []int) {
	s := simtime.NewScheduler(simtime.NewClock(simtest.Epoch), simtime.SchedulerOpts{})
	if sched != 0 {
		simtest.PerturbOn(t, s, sched)
	}
	rng := rand.New(rand.NewSource(prog))
	l := &ledger{s: s, published: map[int]int{}}
	keys := 1 + rng.Intn(4)
	simtest.RunOn(t, s, func(ctx context.Context) {
		g := simtime.NewGroup(s)
		for key := 0; key < keys; key++ {
			at := time.Duration(rng.Intn(3)) * time.Millisecond
			g.Go(ctx, func(ctx context.Context) {
				s.Sleep(ctx, at)
				l.publish(ctx, key, true)
			})
			for b := rng.Intn(3); b > 0; b-- {
				at := time.Duration(rng.Intn(3)) * time.Millisecond
				g.Go(ctx, func(ctx context.Context) {
					s.Sleep(ctx, at)
					s.Go(ctx, func(context.Context) {})
				})
			}
		}
		g.Wait(ctx)
	})
	var twice []int
	for key := 0; key < keys; key++ {
		if l.published[key] > 1 {
			twice = append(twice, key)
		}
	}
	return fmt.Sprint(l.published), twice
}

// TestPlantedOrderBugIsFound is the exploration's own test: the planted
// bug passes in registration order for every program seed, a schedule
// seed within the budget makes some program publish a key twice, and
// rerunning that (program seed, schedule seed) pair fails again, with
// the same ledger.
func TestPlantedOrderBugIsFound(t *testing.T) {
	const programs = 50
	for prog := int64(1); prog <= programs; prog++ {
		if got, twice := plant(t, prog, 0); twice != nil {
			t.Fatalf("program seed %d publishes keys %v twice in registration order: %s", prog, twice, got)
		}
	}
	for sched := int64(1); sched <= 1000; sched++ {
		for prog := int64(1); prog <= programs; prog++ {
			got, twice := plant(t, prog, sched)
			if twice == nil {
				continue
			}
			if again, _ := plant(t, prog, sched); again != got {
				t.Fatalf("program seed %d, schedule seed %d: ledger %s, and %s when rerun", prog, sched, got, again)
			}
			t.Logf("program seed %d, schedule seed %d publishes keys %v twice: %s", prog, sched, twice, got)
			return
		}
	}
	t.Fatal("no schedule seed within the budget exposed the planted order bug")
}

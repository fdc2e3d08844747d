// Package simtest is the test support for code written against
// simtime.Source: it runs a test body as the root goroutine of a
// Scheduler, so every duration the body sees is virtual — exact and
// independent of host load — and fails the test when the run left a
// wait uninstrumented.
package simtest

import (
	"context"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/simtime/internal/pct"
)

// Epoch is where Run's clock starts.
var Epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

// Run runs body as the root goroutine of a fresh scheduler and returns
// the scheduler for assertions on the virtual time the run took.
func Run(t testing.TB, body func(ctx context.Context, s *simtime.Scheduler)) *simtime.Scheduler {
	t.Helper()
	s := simtime.NewScheduler(simtime.NewClock(Epoch), simtime.SchedulerOpts{})
	RunOn(t, s, func(ctx context.Context) { body(ctx, s) })
	return s
}

// RunOn runs body as the root goroutine of s (a testnet's scheduler, or
// one the test built its fixtures over) and demands zero stalls. body
// is not on the test's goroutine, but may still end the test: a t.Fatal
// or t.Skip inside it ends the run, and RunOn repeats it on the test's
// goroutine.
func RunOn(t testing.TB, s *simtime.Scheduler, body func(ctx context.Context)) {
	t.Helper()
	returned := false
	err := s.Run(context.Background(), func(ctx context.Context) {
		body(ctx)
		returned = true
	})
	if !returned {
		if t.Skipped() {
			t.SkipNow()
		}
		t.FailNow()
	}
	if err != nil {
		t.Fatalf("scheduler run: %v", err)
	}
	if n := s.Stalls(); n != 0 {
		t.Errorf("dispatcher stalled %d times: a wait on the workload path is not on the run's Source; parked at the first stall:\n%s", n, s.StallReport())
	}
}

// PerturbOn makes s, not yet run, order its same-instant work by
// schedule seed instead of by registration (docs/ARCHITECTURE.md,
// "Exploring the same-instant order"), and checks when the test ends
// that its run left nothing parked, queued or leased. A failing
// (program seed, schedule seed) pair fails again when rerun.
func PerturbOn(t testing.TB, s *simtime.Scheduler, seed int64) {
	pct.Perturb(s, seed)
	t.Cleanup(func() {
		if left, ended := pct.Ended(s); ended && left != (pct.Left{}) {
			t.Errorf("schedule seed %d: the run ended with %+v", seed, left)
		}
	})
}

// Perturb is PerturbOn for every Scheduler built until the test ends,
// testnet.Build's included. It is process-wide: a test that calls it
// must not run in parallel.
func Perturb(t testing.TB, seed int64) {
	perturb := func(s any) { PerturbOn(t, s.(*simtime.Scheduler), seed) }
	prev := pct.Built.Swap(&perturb)
	t.Cleanup(func() { pct.Built.Store(prev) })
}

// Schedules is how many schedule seeds an exploration covers: full in a
// plain run, five under -short or the race detector.
func Schedules(full int64) int64 {
	if testing.Short() || pct.Race {
		return 5
	}
	return full
}

// BothEngines runs body as two subtests: "scheduler", as the root of a
// fresh scheduler with unit = one second of virtual time, and "wall",
// on the real-time source the daemons use with unit = one millisecond.
// A body scripts its delays in units; only the scheduler leg can assert
// exact durations. It is for the few waits written once for both
// sources (simtime.Signal and what is built on it) — anything that
// models simulated time belongs in Run.
func BothEngines(t *testing.T, body func(t *testing.T, ctx context.Context, src simtime.Source, unit time.Duration)) {
	t.Run("wall", func(t *testing.T) {
		body(t, context.Background(), simtime.OrWall(nil), time.Millisecond)
	})
	t.Run("scheduler", func(t *testing.T) {
		Run(t, func(ctx context.Context, s *simtime.Scheduler) { body(t, ctx, s, time.Second) })
	})
}

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

package simtime

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestOrWall pins the one rule for an optional Source: nil is the wall
// clock, anything else passes through.
func TestOrWall(t *testing.T) {
	if d := time.Since(OrWall(nil).Now()); d < 0 || d > time.Minute {
		t.Errorf("nil source Now is %v away from the wall clock", d)
	}
	s := NewScheduler(nil, SchedulerOpts{})
	if OrWall(s) != Source(s) {
		t.Error("OrWall must pass a non-nil source through")
	}
}

// TestSleepPrecisionShort: a sub-millisecond sleep takes exactly its
// duration of virtual time — what the deleted real-time engine's spin
// loop could only approximate.
func TestSleepPrecisionShort(t *testing.T) {
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		start := s.Stamp()
		if err := s.Sleep(ctx, 200*time.Microsecond); err != nil {
			t.Error(err)
		}
		if got := s.Since(start); got != 200*time.Microsecond {
			t.Errorf("short sleep took %v of virtual time, want exactly 200µs", got)
		}
	})
}

func TestSleepCancellation(t *testing.T) {
	s := OrWall(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := s.Sleep(ctx, 10*time.Second)
	if err == nil {
		t.Fatal("cancelled sleep should return an error")
	}
	if time.Since(start) > time.Second {
		t.Error("cancellation did not interrupt the sleep")
	}
}

func TestSleepZero(t *testing.T) {
	if err := OrWall(nil).Sleep(context.Background(), 0); err != nil {
		t.Errorf("zero sleep: %v", err)
	}
}

// TestSimSince: on the wall clock Since reads the real time elapsed
// since the stamp, so it is at least what was slept.
func TestSimSince(t *testing.T) {
	s := OrWall(nil)
	start := s.Stamp()
	if err := s.Sleep(context.Background(), 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := s.Since(start); got < 2*time.Millisecond {
		t.Errorf("Since = %v after a 2ms sleep", got)
	}
}

func TestWithTimeout(t *testing.T) {
	ctx, cancel := OrWall(nil).WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("no deadline")
	}
	if until := time.Until(dl); until > time.Minute || until < 50*time.Second {
		t.Errorf("deadline %v away, want a minute", until)
	}
}

// TestMixedEnginesPanic pins the wiring check: a context leased to a
// Scheduler that reaches the real-time source's Go, Sleep, WithTimeout,
// WithCancel or AfterFunc means a component inside the simulated run was built
// with a nil source — each call panics naming itself. Outside a
// scheduler run none does.
func TestMixedEnginesPanic(t *testing.T) {
	w := OrWall(nil)
	calls := map[string]func(ctx context.Context){
		"Go":          func(ctx context.Context) { w.Go(ctx, func(context.Context) {}) },
		"Sleep":       func(ctx context.Context) { w.Sleep(ctx, time.Nanosecond) },
		"WithTimeout": func(ctx context.Context) { _, cancel := w.WithTimeout(ctx, time.Second); cancel() },
		"WithCancel":  func(ctx context.Context) { _, cancel := w.WithCancel(ctx); cancel() },
		"AfterFunc":   func(ctx context.Context) { w.AfterFunc(ctx, time.Hour, func(context.Context) {}).Stop() },
	}
	panics := func(name string, ctx context.Context) (msg string) {
		defer func() {
			if r := recover(); r != nil {
				msg = fmt.Sprint(r)
			}
		}()
		calls[name](ctx)
		return ""
	}
	for name := range calls {
		if msg := panics(name, context.Background()); msg != "" {
			t.Errorf("%s outside a scheduler run panicked: %s", name, msg)
		}
	}
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		for name := range calls {
			for _, c := range []context.Context{ctx, Detach(ctx)} {
				msg := panics(name, c)
				if !strings.Contains(msg, "simtime: "+name+" on the real-time source") {
					t.Errorf("%s with a leased context: panic %q, want one naming the call", name, msg)
				}
			}
		}
	})
}

// TestSignal covers the wait primitive on the scheduler and on the wall
// clock (where the scripted second is a millisecond): a Notify that
// lands before Wait is not lost, producers wake the consumer once their
// deposit makes the condition true, cancellation returns ctx.Err(), and
// under a detached context only a notify ends the wait.
func TestSignal(t *testing.T) {
	body := func(t *testing.T, ctx context.Context, src Source, sec time.Duration) {
		// Notifies that land before Wait parks are kept (and coalesce, so
		// the second cannot block): a condition that only holds on its
		// second evaluation is re-evaluated without any further notify.
		sig := NewSignal(src)
		sig.Notify()
		sig.Notify()
		evals := 0
		if err := sig.Wait(ctx, func() bool { evals++; return evals == 2 }); err != nil {
			t.Errorf("Wait after an early Notify: %v", err)
			return
		}
		var n atomic.Int32
		src.Go(ctx, func(ctx context.Context) {
			src.Sleep(ctx, sec)
			n.Store(2)
			sig.Notify()
			src.Sleep(ctx, sec)
			n.Store(3)
			sig.Notify()
		})
		if err := sig.Wait(ctx, func() bool { return n.Load() == 3 }); err != nil {
			t.Errorf("Wait for the second deposit: %v", err)
			return
		}

		// Cancellation ends the wait with ctx.Err().
		cctx, cancel := src.WithTimeout(ctx, sec)
		defer cancel()
		if err := sig.Wait(cctx, func() bool { return false }); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Wait under an expired timeout = %v, want DeadlineExceeded", err)
			return
		}
		if err := sig.Wait(cctx, func() bool { return true }); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Wait on a dead context = %v, want its error even with the condition true", err)
			return
		}

		// Detached from that dead context, only the notify wakes it.
		src.Go(ctx, func(ctx context.Context) {
			src.Sleep(ctx, sec)
			n.Store(4)
			sig.Notify()
		})
		if err := sig.Wait(Detach(cctx), func() bool { return n.Load() == 4 }); err != nil {
			t.Errorf("detached Wait: %v", err)
			return
		}
	}
	t.Run("wall", func(t *testing.T) { body(t, context.Background(), OrWall(nil), time.Millisecond) })
	t.Run("scheduler", func(t *testing.T) {
		s := run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) { body(t, ctx, s, time.Second) })
		if got := s.Now().Sub(epoch); got != 4*time.Second {
			t.Errorf("virtual duration = %v, want exactly 4s (2s of deposits, 1s timeout, 1s detached)", got)
		}
	})
}

// TestGroupAwaitOnWall is TestSchedulerGroupFanOut's real-time twin for
// the composite wait: first result, or all done, or timeout.
func TestGroupAwaitOnWall(t *testing.T) {
	src := OrWall(nil)
	ctx := context.Background()
	found := make(chan int, 4)
	g := NewGroup(src)
	for i := 1; i <= 4; i++ {
		g.Go(ctx, func(ctx context.Context) {
			src.Sleep(ctx, time.Duration(i)*10*time.Millisecond)
			if i == 2 {
				found <- i
			}
		})
	}
	cond := func() bool { return len(found) > 0 || g.Idle() }
	if err := g.Await(ctx, cond); err != nil || len(found) != 1 {
		t.Fatalf("Await = %v with %d results, want the first result", err, len(found))
	}
	if g.Idle() {
		t.Error("Await waited for every goroutine instead of the first result")
	}
	<-found
	if err := g.Await(ctx, cond); err != nil || !g.Idle() {
		t.Fatalf("Await = %v, idle=%v, want all done", err, g.Idle())
	}
	lctx, stop := context.WithCancel(ctx)
	defer stop()
	g.Go(lctx, func(ctx context.Context) { src.Sleep(ctx, time.Hour) })
	tctx, cancel := src.WithTimeout(ctx, time.Millisecond)
	defer cancel()
	if err := g.Await(tctx, cond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Await = %v, want the timeout", err)
	}
}

// TestClock exercises the movable simulated wall clock.
func TestClock(t *testing.T) {
	start := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	c := NewClock(start)
	if !c.Now().Equal(start) {
		t.Fatalf("Now = %v, want %v", c.Now(), start)
	}
	if got := c.Advance(6 * time.Hour); !got.Equal(start.Add(6 * time.Hour)) {
		t.Errorf("Advance returned %v", got)
	}
	if !c.Now().Equal(start.Add(6 * time.Hour)) {
		t.Errorf("Now after Advance = %v", c.Now())
	}
	c.Set(start.Add(24 * time.Hour))
	if !c.Now().Equal(start.Add(24 * time.Hour)) {
		t.Errorf("Now after Set = %v", c.Now())
	}
	// Concurrent readers/writers must be race-clean (run with -race).
	done := make(chan struct{})
	go func() {
		for i := 0; i < 200; i++ {
			c.Advance(time.Second)
		}
		close(done)
	}()
	for i := 0; i < 200; i++ {
		_ = c.Now()
	}
	<-done
}

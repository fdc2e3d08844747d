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

func TestRealSimConversion(t *testing.T) {
	s := Scaled(0.01, nil).(*scaled)
	if got := s.real(10 * time.Second); got != 100*time.Millisecond {
		t.Errorf("real = %v", got)
	}
	if got := s.sim(100 * time.Millisecond); got != 10*time.Second {
		t.Errorf("sim = %v", got)
	}
}

func TestZeroAndNegativeScaleFallsBack(t *testing.T) {
	if Scaled(0, nil).(*scaled).scale != 1 {
		t.Error("scale 0 should fall back to 1")
	}
	if Scaled(-2, nil).(*scaled).scale != 1 {
		t.Error("negative scale should fall back to 1")
	}
	if OrWall(nil).(*scaled).real(time.Second) != time.Second {
		t.Error("the nil source must be the identity")
	}
	if s := Scaled(0.5, nil); OrWall(s) != s {
		t.Error("OrWall must pass a non-nil source through")
	}
}

// TestScaledNow pins the two clocks a real-time source reads: the wall
// clock by default, the given func otherwise.
func TestScaledNow(t *testing.T) {
	if d := time.Since(OrWall(nil).Now()); d < 0 || d > time.Minute {
		t.Errorf("nil source Now is %v away from the wall clock", d)
	}
	c := NewClock(time.Unix(1000, 0))
	s := Scaled(0.001, c.Now)
	c.Advance(time.Hour)
	if got := s.Now(); !got.Equal(time.Unix(1000, 0).Add(time.Hour)) {
		t.Errorf("Now = %v, want the clock's", got)
	}
}

func TestSleepPrecisionShort(t *testing.T) {
	s := Scaled(0.001, nil)
	// 200 simulated ms at scale 0.001 = 200µs real: spin path.
	start := time.Now()
	if err := s.Sleep(context.Background(), 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	real := time.Since(start)
	if real < 150*time.Microsecond || real > 1500*time.Microsecond {
		t.Errorf("short sleep took %v real, want ~200µs", real)
	}
}

func TestSleepCancellation(t *testing.T) {
	s := Scaled(1, nil)
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

func TestSimSince(t *testing.T) {
	s := Scaled(0.001, nil)
	start := s.Stamp()
	if err := s.Sleep(context.Background(), time.Second); err != nil {
		t.Fatal(err)
	}
	sim := s.Since(start)
	if sim < 800*time.Millisecond || sim > 3*time.Second {
		t.Errorf("Since = %v, want ~1s", sim)
	}
}

func TestWithTimeout(t *testing.T) {
	s := Scaled(0.001, nil)
	ctx, cancel := s.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("no deadline")
	}
	if until := time.Until(dl); until > 100*time.Millisecond {
		t.Errorf("deadline %v away, want ~60ms", until)
	}
}

// TestMixedEnginesPanic pins the wiring check: a context leased to a
// Scheduler that reaches the real-time source's Go, Sleep, WithTimeout
// or AfterFunc means a component inside the simulated run was built
// with a nil source — each call panics naming itself. Outside a
// scheduler run none does.
func TestMixedEnginesPanic(t *testing.T) {
	w := OrWall(nil)
	calls := map[string]func(ctx context.Context){
		"Go":          func(ctx context.Context) { w.Go(ctx, func(context.Context) {}) },
		"Sleep":       func(ctx context.Context) { w.Sleep(ctx, time.Nanosecond) },
		"WithTimeout": func(ctx context.Context) { _, cancel := w.WithTimeout(ctx, time.Second); cancel() },
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

// TestSignal covers the wait primitive on both engines: a Notify that
// lands before Wait is not lost, producers wake the consumer once their
// deposit makes the condition true, cancellation returns ctx.Err(), and
// under a detached context only a notify ends the wait.
func TestSignal(t *testing.T) {
	body := func(t *testing.T, ctx context.Context, src Source) {
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
			src.Sleep(ctx, time.Second)
			n.Store(2)
			sig.Notify()
			src.Sleep(ctx, time.Second)
			n.Store(3)
			sig.Notify()
		})
		if err := sig.Wait(ctx, func() bool { return n.Load() == 3 }); err != nil {
			t.Errorf("Wait for the second deposit: %v", err)
			return
		}

		// Cancellation ends the wait with ctx.Err().
		cctx, cancel := src.WithTimeout(ctx, time.Second)
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
			src.Sleep(ctx, time.Second)
			n.Store(4)
			sig.Notify()
		})
		if err := sig.Wait(Detach(cctx), func() bool { return n.Load() == 4 }); err != nil {
			t.Errorf("detached Wait: %v", err)
			return
		}
	}
	t.Run("wall", func(t *testing.T) { body(t, context.Background(), Scaled(0.001, nil)) })
	t.Run("scheduler", func(t *testing.T) {
		s := run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) { body(t, ctx, s) })
		if got := s.Now().Sub(epoch); got != 4*time.Second {
			t.Errorf("virtual duration = %v, want exactly 4s (2s of deposits, 1s timeout, 1s detached)", got)
		}
	})
}

// TestGroupAwaitOnWall is TestSchedulerGroupFanOut's real-time twin for
// the composite wait: first result, or all done, or timeout.
func TestGroupAwaitOnWall(t *testing.T) {
	src := Scaled(0.001, nil)
	ctx := context.Background()
	found := make(chan int, 4)
	g := NewGroup(src)
	for i := 1; i <= 4; i++ {
		g.Go(ctx, func(ctx context.Context) {
			src.Sleep(ctx, time.Duration(i)*10*time.Second)
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
	tctx, cancel := src.WithTimeout(ctx, time.Second)
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

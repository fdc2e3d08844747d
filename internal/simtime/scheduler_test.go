package simtime

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

// run drives root on a fresh scheduler and fails the test on a
// dispatcher error or a non-zero stall count (a stall means some wait
// escaped instrumentation — determinism is gone).
func run(t *testing.T, opts SchedulerOpts, root func(ctx context.Context, s *Scheduler)) *Scheduler {
	t.Helper()
	s := NewScheduler(NewClock(epoch), opts)
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background(), func(ctx context.Context) { root(ctx, s) }) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("scheduler run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler run did not finish")
	}
	if n := s.Stalls(); n != 0 {
		t.Fatalf("dispatcher stalled %d times: uninstrumented wait on the workload path", n)
	}
	return s
}

// TestSchedulerEventOrdering pins the queue discipline: events fire in
// timestamp order, same-instant events in scheduling (sequence) order,
// and virtual time jumps to each event instead of sleeping through the
// gaps (hours of virtual time, milliseconds of wall clock).
func TestSchedulerEventOrdering(t *testing.T) {
	wallStart := time.Now()
	var mu sync.Mutex
	var got []string
	s := run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		log := func(tag string) func() {
			return func() { mu.Lock(); got = append(got, tag); mu.Unlock() }
		}
		s.At(epoch.Add(2*time.Hour), log("b"))
		s.At(epoch.Add(1*time.Hour), log("a"))
		s.At(epoch.Add(2*time.Hour), log("c")) // same instant as b: seq order
		s.At(epoch.Add(26*time.Hour), log("d"))
		if err := s.Sleep(ctx, 27*time.Hour); err != nil {
			t.Errorf("sleep: %v", err)
		}
		if now := s.Now(); !now.Equal(epoch.Add(27 * time.Hour)) {
			t.Errorf("virtual clock at %v, want %v", now, epoch.Add(27*time.Hour))
		}
	})
	want := "[a b c d]"
	if fmt.Sprint(got) != want {
		t.Fatalf("event order %v, want %v", got, want)
	}
	if wall := time.Since(wallStart); wall > 5*time.Second {
		t.Fatalf("27 virtual hours took %v of wall clock; the scheduler is sleeping for real", wall)
	}
	if s.Now() != s.Stamp() {
		t.Fatalf("Stamp/Now disagree")
	}
}

// TestSchedulerTransitionPriority pins that world-state transitions
// (At) fire before timer wakes at the same instant: a peer going
// offline at t is observed offline by work scheduled at t.
func TestSchedulerTransitionPriority(t *testing.T) {
	var offline atomic.Bool
	target := epoch.Add(time.Hour)
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		// Sleep wake (prioTimer) is scheduled first, transition second;
		// priority must still order the transition ahead of the wake.
		wake := make(chan struct{})
		s.Go(ctx, func(ctx context.Context) {
			s.SleepUntil(ctx, target)
			if !offline.Load() {
				t.Error("timer wake at t ran before the transition at t")
			}
			close(wake)
		})
		s.Sleep(ctx, time.Minute) // let the sleeper park first
		s.At(target, func() { offline.Store(true) })
		AwaitClosed(ctx, s, wake)
	})
}

// TestSchedulerTimerCancel covers the cancellable-timer satellite: a
// stopped At/AfterFunc never fires, Stop reports whether it won, and a
// context cancelled before expiry suppresses the callback.
func TestSchedulerTimerCancel(t *testing.T) {
	var fired int32
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		tm := s.At(s.Now().Add(time.Hour), func() { atomic.AddInt32(&fired, 1) })
		if !tm.Stop() {
			t.Error("Stop on a pending timer reported false")
		}
		if tm.Stop() {
			t.Error("second Stop reported true")
		}

		cctx, cancel := context.WithCancel(ctx)
		s.AfterFunc(cctx, 30*time.Minute, func(context.Context) { atomic.AddInt32(&fired, 1) })
		cancel()

		kept := s.AfterFunc(ctx, 45*time.Minute, func(context.Context) { atomic.AddInt32(&fired, 1) })
		s.Sleep(ctx, 2*time.Hour)
		if kept.Stop() {
			t.Error("Stop after firing reported true")
		}
	})
	if n := atomic.LoadInt32(&fired); n != 1 {
		t.Fatalf("fired %d callbacks, want exactly the un-cancelled one", n)
	}
}

// TestSchedulerVirtualTimeout pins WithTimeout semantics on the virtual
// clock: expiry yields DeadlineExceeded exactly at the deadline, an
// early cancel stops the queue event, and a parked Sleep observes the
// expiry.
func TestSchedulerVirtualTimeout(t *testing.T) {
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		tctx, cancel := s.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := s.Sleep(tctx, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("sleep across deadline: err %v, want DeadlineExceeded", err)
		}
		if now := s.Now(); !now.Equal(epoch.Add(10 * time.Second)) {
			t.Errorf("woke at %v, want the 10s deadline instant", now)
		}
		if d, ok := tctx.Deadline(); !ok || !d.Equal(epoch.Add(10*time.Second)) {
			t.Errorf("Deadline() = %v, %v", d, ok)
		}

		// Cancelled before expiry: the deadline event must not fire or
		// leak; sleeping past the would-be deadline succeeds.
		c2, cancel2 := s.WithTimeout(ctx, time.Second)
		cancel2()
		if c2.Err() == nil {
			t.Error("cancelled timeout ctx has nil Err")
		}
		if err := s.Sleep(ctx, 5*time.Second); err != nil {
			t.Errorf("sleep after cancelled timeout: %v", err)
		}
	})
}

// TestSchedulerAwaitWake covers the Await/condition protocol: a waiter
// parked on a condition wakes when a later event makes it true, and
// virtual time advanced to exactly that event.
func TestSchedulerAwaitWake(t *testing.T) {
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		var ready atomic.Bool
		s.At(epoch.Add(3*time.Hour), func() { ready.Store(true) })
		if err := s.Await(ctx, ready.Load); err != nil {
			t.Errorf("await: %v", err)
		}
		if now := s.Now(); !now.Equal(epoch.Add(3 * time.Hour)) {
			t.Errorf("await woke at %v, want the event instant", now)
		}
	})
}

// TestSchedulerGroupFanOut pins the Group fan-out/fan-in shape every
// store fan-out uses: workers sleeping different virtual durations all
// join, and the coordinator resumes at the latest wake.
func TestSchedulerGroupFanOut(t *testing.T) {
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		g := NewGroup(s)
		var woke int32
		for i := 1; i <= 8; i++ {
			d := time.Duration(i) * time.Minute
			g.Go(ctx, func(ctx context.Context) {
				s.Sleep(ctx, d)
				atomic.AddInt32(&woke, 1)
			})
		}
		g.Wait(ctx)
		if woke != 8 {
			t.Errorf("joined with %d/8 workers done", woke)
		}
		if now := s.Now(); !now.Equal(epoch.Add(8 * time.Minute)) {
			t.Errorf("coordinator resumed at %v, want the slowest worker's wake", now)
		}
	})
}

// TestSchedulerRecv pins the instrumented channel receive: the consumer
// parks, virtual time advances to the producer's send instant, and the
// values arrive in virtual-time order.
func TestSchedulerRecv(t *testing.T) {
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		ch := make(chan int, 4)
		s.Go(ctx, func(ctx context.Context) {
			for i := 1; i <= 3; i++ {
				s.Sleep(ctx, time.Duration(i)*time.Second)
				ch <- i
			}
		})
		for want := 1; want <= 3; want++ {
			v, ok := Recv(ctx, Source(s), ch)
			if !ok || v != want {
				t.Fatalf("recv %d: got %d ok=%v", want, v, ok)
			}
		}
	})
}

// TestSchedulerConcurrentWake exercises Workers > 1: several sleepers
// share one deadline and must all wake at that instant, concurrently,
// without losing a lease or corrupting the clock (run under -race).
func TestSchedulerConcurrentWake(t *testing.T) {
	const sleepers = 32
	var woke int32
	run(t, SchedulerOpts{Workers: 4}, func(ctx context.Context, s *Scheduler) {
		g := NewGroup(s)
		for i := 0; i < sleepers; i++ {
			g.Go(ctx, func(ctx context.Context) {
				if err := s.Sleep(ctx, time.Hour); err != nil {
					t.Errorf("sleep: %v", err)
				}
				if now := s.Now(); !now.Equal(epoch.Add(time.Hour)) {
					t.Errorf("woke at %v", now)
				}
				atomic.AddInt32(&woke, 1)
			})
		}
		g.Wait(ctx)
	})
	if woke != sleepers {
		t.Fatalf("woke %d/%d sleepers", woke, sleepers)
	}
}

// TestSchedulerWorkerPoolStress is the -race stress test for the
// dispatcher and worker pool: a few hundred leased goroutines hammer
// sleeps, awaits, timers and nested spawns at overlapping virtual
// instants with Workers = 8.
func TestSchedulerWorkerPoolStress(t *testing.T) {
	const tasks = 200
	var completed int32
	run(t, SchedulerOpts{Workers: 8}, func(ctx context.Context, s *Scheduler) {
		g := NewGroup(s)
		for i := 0; i < tasks; i++ {
			i := i
			g.Go(ctx, func(ctx context.Context) {
				// Deterministic per-task mix of primitives; many tasks
				// collide on the same instants on purpose.
				d := time.Duration(i%7+1) * time.Second
				s.Sleep(ctx, d)
				var tick atomic.Bool
				tm := s.At(s.Now().Add(time.Duration(i%3)*time.Second), func() { tick.Store(true) })
				if i%5 == 0 {
					tm.Stop()
				} else {
					s.Await(ctx, tick.Load)
				}
				if i%4 == 0 {
					tctx, cancel := s.WithTimeout(ctx, time.Millisecond)
					s.Sleep(tctx, time.Second)
					cancel()
				}
				inner := NewGroup(s)
				for j := 0; j < 3; j++ {
					j := j
					inner.Go(ctx, func(ctx context.Context) {
						s.Sleep(ctx, time.Duration(j+1)*time.Second)
					})
				}
				inner.Wait(ctx)
				atomic.AddInt32(&completed, 1)
			})
		}
		g.Wait(ctx)
	})
	if completed != tasks {
		t.Fatalf("completed %d/%d tasks", completed, tasks)
	}
}

// TestSchedulerDeterministicReplay runs the same seeded task mix twice
// at Workers = 1 and requires identical wake traces — the bit-for-bit
// reproducibility the tie-breaking sequence numbers exist for.
func TestSchedulerDeterministicReplay(t *testing.T) {
	trace := func() string {
		var mu sync.Mutex
		var log []string
		run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
			g := NewGroup(s)
			for i := 0; i < 20; i++ {
				i := i
				g.Go(ctx, func(ctx context.Context) {
					s.Sleep(ctx, time.Duration((i*37)%11+1)*time.Second)
					mu.Lock()
					log = append(log, fmt.Sprintf("%d@%s", i, s.Now().Sub(epoch)))
					mu.Unlock()
					s.Sleep(ctx, time.Duration(i%5+1)*time.Second)
					mu.Lock()
					log = append(log, fmt.Sprintf("%d'@%s", i, s.Now().Sub(epoch)))
					mu.Unlock()
				})
			}
			g.Wait(ctx)
		})
		return fmt.Sprint(log)
	}
	a, b := trace(), trace()
	if a != b {
		t.Fatalf("two seeded runs diverged:\n%s\n%s", a, b)
	}
}

// TestSchedulerCloseUnwindsWaiters pins shutdown hygiene: background
// waiters still parked when Run finishes are woken with
// ErrSchedulerClosed instead of leaking.
func TestSchedulerCloseUnwindsWaiters(t *testing.T) {
	unwound := make(chan error, 1)
	s := NewScheduler(NewClock(epoch), SchedulerOpts{})
	err := s.Run(context.Background(), func(ctx context.Context) {
		// An untracked background goroutine parks on a condition nobody
		// will ever satisfy (tracked would hold the run open forever).
		started := make(chan struct{})
		go func() {
			close(started)
			unwound <- s.Await(context.Background(), func() bool { return false })
		}()
		<-started
		s.Sleep(ctx, time.Second)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	select {
	case werr := <-unwound:
		if !errors.Is(werr, ErrSchedulerClosed) {
			t.Fatalf("waiter unwound with %v, want ErrSchedulerClosed", werr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("background waiter leaked past Run")
	}
	if err := s.Sleep(context.Background(), time.Second); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("sleep on closed scheduler: %v", err)
	}
}

// TestDeadlineCtxErrConcurrent pins what the lock-free Err must keep:
// while one goroutine ends a WithTimeout context, others poll Err and
// Done; Err never goes back to nil, is non-nil once Done is closed, and
// reports the cause it always reported — DeadlineExceeded at the virtual
// deadline, Canceled from the CancelFunc, the parent's error when the
// parent ends first. Run under -race.
func TestDeadlineCtxErrConcurrent(t *testing.T) {
	cases := []struct {
		name string
		want error
		end  func(s *Scheduler, tctx context.Context, cancelParent, cancel context.CancelFunc)
	}{
		{"deadline", context.DeadlineExceeded, func(s *Scheduler, tctx context.Context, _, _ context.CancelFunc) {
			if err := s.Sleep(tctx, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("sleep across deadline: err %v", err)
			}
		}},
		{"cancel", context.Canceled, func(_ *Scheduler, _ context.Context, _, cancel context.CancelFunc) { cancel() }},
		{"parent", context.Canceled, func(_ *Scheduler, _ context.Context, cancelParent, _ context.CancelFunc) { cancelParent() }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var wg sync.WaitGroup
			run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
				parent, cancelParent := context.WithCancel(ctx)
				defer cancelParent()
				tctx, cancel := s.WithTimeout(parent, 10*time.Second)
				defer cancel()
				// The pollers hold no lease: they spin on real time and
				// never park, so the dispatcher neither sees nor waits
				// for them.
				for i := 0; i < 8; i++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var seen error
						for closed := false; !closed; {
							select {
							case <-tctx.Done():
								closed = true
							default:
							}
							err := tctx.Err()
							if closed && err != tc.want {
								t.Errorf("Err() = %v after Done() closed, want %v", err, tc.want)
							}
							if seen != nil && err != seen {
								t.Errorf("Err() changed from %v to %v", seen, err)
								return
							}
							seen = err
						}
					}()
				}
				tc.end(s, tctx, cancelParent, cancel)
			})
			// Parent cancellation reaches tctx on context.AfterFunc's own
			// goroutine: the pollers leave only once Done has closed.
			wg.Wait()
		})
	}
}

// TestBorrowedLeasePanics pins the per-goroutine lease: a plain `go`
// child of a leased goroutine inherits its parent's lease through the
// context, and its first wait would park a lease it does not hold —
// virtual time could then advance under the parent, invisibly to
// Stalls. The wait panics naming the call; children spawned through
// Source.Go get their own lease and wait freely.
func TestBorrowedLeasePanics(t *testing.T) {
	s := NewScheduler(NewClock(epoch), SchedulerOpts{})
	var msg atomic.Pointer[string]
	err := s.Run(context.Background(), func(ctx context.Context) {
		// A tracked child may sleep while its parent does.
		g := NewGroup(s)
		g.Go(ctx, func(ctx context.Context) { s.Sleep(ctx, time.Second) })
		s.Sleep(ctx, time.Second)
		g.Wait(ctx)
		if got := s.Now().Sub(epoch); got != time.Second {
			t.Errorf("virtual time = %v after parent and tracked child slept 1s side by side", got)
		}

		// The raw child waits until its parent is parked, so it is
		// always the one that finds the lease taken.
		l := leaseOf(ctx)
		go func() {
			defer func() {
				m := fmt.Sprint(recover())
				msg.Store(&m)
			}()
			for !l.parked.Load() {
				runtime.Gosched()
			}
			s.Sleep(ctx, time.Second)
		}()
		s.Await(ctx, func() bool { return msg.Load() != nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := *msg.Load(); !strings.Contains(got, "simtime: Sleep on a lease that is already parked") {
		t.Errorf("raw child's Sleep: panic %q, want one naming the call and the parked lease", got)
	}
}

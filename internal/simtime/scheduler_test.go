package simtime

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simtime/internal/pct"
)

var epoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

// run drives root on a fresh scheduler and fails the test on a
// dispatcher error or a non-zero stall count (a stall means some wait
// escaped instrumentation — determinism is gone).
func run(t *testing.T, opts SchedulerOpts, root func(ctx context.Context, s *Scheduler)) *Scheduler {
	t.Helper()
	return runOn(t, NewScheduler(NewClock(epoch), opts), root)
}

// scheduleSeeds is simtest.Schedules, which this package's tests cannot
// import: full in a plain run, five under -short or the race detector.
func scheduleSeeds(full int64) int64 {
	if testing.Short() || pct.Race {
		return 5
	}
	return full
}

// runUnder is run with the same-instant order perturbed by schedule
// seed sched (package pct).
func runUnder(t *testing.T, sched int64, root func(ctx context.Context, s *Scheduler)) *Scheduler {
	t.Helper()
	s := NewScheduler(NewClock(epoch), SchedulerOpts{})
	s.order = newOrder(sched)
	return runOn(t, s, root)
}

func runOn(t *testing.T, s *Scheduler, root func(ctx context.Context, s *Scheduler)) *Scheduler {
	t.Helper()
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

// TestSchedulerConcurrentWake: several sleepers share one deadline and
// must all wake at that instant, in whatever order a schedule seed
// picks, without losing a lease or moving the clock.
func TestSchedulerConcurrentWake(t *testing.T) {
	const sleepers = 32
	for sched := int64(1); sched <= 20; sched++ {
		var woke []int
		runUnder(t, sched, func(ctx context.Context, s *Scheduler) {
			g := NewGroup(s)
			for i := 0; i < sleepers; i++ {
				g.Go(ctx, func(ctx context.Context) {
					if err := s.Sleep(ctx, time.Hour); err != nil {
						t.Errorf("sleep: %v", err)
					}
					if now := s.Now(); !now.Equal(epoch.Add(time.Hour)) {
						t.Errorf("woke at %v", now)
					}
					woke = append(woke, i) // one leased goroutine runs at a time
				})
			}
			g.Wait(ctx)
		})
		if len(woke) != sleepers {
			t.Fatalf("schedule seed %d: woke %d/%d sleepers", sched, len(woke), sleepers)
		}
		if sort.IntsAreSorted(woke) {
			t.Errorf("schedule seed %d woke the sleepers in the order they slept: nothing was perturbed", sched)
		}
	}
}

// TestSchedulerStressUnderSchedules is the stress test for the
// dispatcher: a few hundred leased goroutines hammer sleeps, awaits,
// timers and nested spawns at overlapping virtual instants, under a
// range of schedule seeds.
func TestSchedulerStressUnderSchedules(t *testing.T) {
	for sched := int64(1); sched <= 10; sched++ {
		stressTasks(t, sched)
	}
}

func stressTasks(t *testing.T, sched int64) {
	const tasks = 200
	var completed int32
	runUnder(t, sched, func(ctx context.Context, s *Scheduler) {
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
		t.Fatalf("schedule seed %d: completed %d/%d tasks", sched, completed, tasks)
	}
}

// TestSchedulerDeterministicReplay runs the same seeded task mix twice
// and requires identical wake traces — the bit-for-bit reproducibility
// the tie-breaking sequence numbers exist for.
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

// TestDeadlineCtxErrConcurrent pins what the lock-free Err must keep on
// both kinds of node — exact (the parent is the scheduler's own, so its
// end arrives under s.mu) and inexact (a std cancel context above, whose
// end arrives on context.AfterFunc's goroutine): while one goroutine
// ends the context, others poll Err and Done; Err never goes back to
// nil, is non-nil once Done is closed, and reports the cause that came
// first — DeadlineExceeded at the virtual deadline, Canceled from the
// CancelFunc, the parent's error when the parent ends first, and the
// node's own cause, not the parent's, when the parent ends after it.
// Run under -race.
func TestDeadlineCtxErrConcurrent(t *testing.T) {
	parentGone := errors.New("parent gone")
	cases := []struct {
		name string
		want error
		end  func(s *Scheduler, ctx, tctx context.Context, cancelParent func(), cancel context.CancelFunc)
	}{
		{"deadline", context.DeadlineExceeded, func(s *Scheduler, _, tctx context.Context, _ func(), _ context.CancelFunc) {
			if err := s.Sleep(tctx, time.Minute); !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("sleep across deadline: err %v", err)
			}
		}},
		{"cancel", context.Canceled, func(_ *Scheduler, _, _ context.Context, _ func(), cancel context.CancelFunc) { cancel() }},
		{"parent", parentGone, func(_ *Scheduler, _, _ context.Context, cancelParent func(), _ context.CancelFunc) { cancelParent() }},
		{"own-then-parent", context.Canceled, func(s *Scheduler, ctx, _ context.Context, cancelParent func(), cancel context.CancelFunc) {
			cancel()
			s.Sleep(ctx, time.Second)
			cancelParent()
		}},
	}
	parents := []struct {
		name  string
		exact bool
		with  func(s *Scheduler, ctx context.Context) (context.Context, func())
	}{
		// The parent's end carries a cause of its own, so a test can tell
		// whose error a node reports.
		{"exact", true, func(s *Scheduler, ctx context.Context) (context.Context, func()) {
			p, _ := s.WithCancel(ctx)
			return p, func() { p.(*deadlineCtx).cancel(parentGone) }
		}},
		{"inexact", false, func(_ *Scheduler, ctx context.Context) (context.Context, func()) {
			p, cancel := context.WithCancelCause(ctx)
			return causeAsErr{p}, func() { cancel(parentGone) }
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, pc := range parents {
				pc := pc
				t.Run(pc.name, func(t *testing.T) {
					var wg sync.WaitGroup
					run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
						parent, cancelParent := pc.with(s, ctx)
						defer cancelParent()
						tctx, cancel := s.WithTimeout(parent, 10*time.Second)
						defer cancel()
						if got := tctx.(*deadlineCtx).exact; got != pc.exact {
							t.Fatalf("node under a %s parent: exact = %v", pc.name, got)
						}
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
						tc.end(s, ctx, tctx, cancelParent, cancel)
					})
					// An inexact parent's end reaches tctx on context.AfterFunc's
					// own goroutine: the pollers leave only once Done has closed.
					wg.Wait()
				})
			}
		})
	}
}

// causeAsErr is a foreign context whose Err reports its cancel cause.
type causeAsErr struct{ context.Context }

func (c causeAsErr) Err() error { return context.Cause(c.Context) }

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

// --- contract: the Scheduler against a reference ---

// refSched is the scheduler as it was before the ready list, kept as
// the slow obvious implementation the real one must agree with: the
// events in one sorted slice, and at every quiescent instant every
// parked waiter asked, in registration order, whether it is ready. One
// goroutine runs at a time by construction — a strict handoff over
// yield — so it needs no lock, no lease and no marks: a Signal wait is
// a polled condition and Notify has nothing to do.
//
// Under a schedule seed it takes the Scheduler's perturbation: it
// numbers events and registrations (spawns, parks, AfterFunc callbacks)
// as the Scheduler does, and the same order ranks the ready waiters
// and the timers that share an instant.
type refSched struct {
	now     time.Time
	seq     uint64 // events scheduled
	wseq    uint64 // registrations
	cur     uint64 // the key of the goroutine holding the floor
	order   *order
	events  []*refEvent
	waiters []*refWaiter
	yield   chan struct{} // the running goroutine parked or returned
}

type refEvent struct {
	at   time.Time
	prio int
	seq  uint64
	fn   func()
}

type refWaiter struct {
	g      uint64
	ready  func() bool
	resume chan struct{}
}

func (r *refSched) run(root func(context.Context)) {
	r.start(0, context.Background(), root)
	for {
		if r.wakeFirstReady() {
			continue
		}
		if len(r.events) == 0 {
			return
		}
		// The earliest instant: its transitions, and one timer — the
		// first scheduled, or the one the order ranks highest.
		at := r.events[0].at
		r.now = at
		n := 0
		for n < len(r.events) && r.events[n].at.Equal(at) && r.events[n].prio == prioTransition {
			n++
		}
		batch, rest := r.events[:n:n], r.events[n:]
		if len(rest) > 0 && rest[0].at.Equal(at) {
			t := 0
			for i := 1; r.order != nil && i < len(rest) && rest[i].at.Equal(at); i++ {
				if r.order.rank(timerKey(rest[i].seq)) > r.order.rank(timerKey(rest[t].seq)) {
					t = i
				}
			}
			batch = append(batch, rest[t])
			rest = append(rest[:t:t], rest[t+1:]...)
		}
		r.events = rest
		for _, ev := range batch {
			ev.fn()
		}
	}
}

// wakeFirstReady wakes the ready waiter registered first or, under an
// order, the one whose goroutine it ranks highest.
func (r *refSched) wakeFirstReady() bool {
	pick := -1
	for i, w := range r.waiters {
		if !w.ready() {
			continue
		}
		if pick < 0 || r.order.rank(w.g) > r.order.rank(r.waiters[pick].g) {
			pick = i
		}
		if r.order == nil {
			break
		}
	}
	if pick < 0 {
		return false
	}
	w := r.waiters[pick]
	r.waiters = append(r.waiters[:pick:pick], r.waiters[pick+1:]...)
	if r.order != nil {
		r.order.woke(w.g)
	}
	r.cur = w.g
	close(w.resume)
	<-r.yield
	return true
}

// start runs fn as goroutine g until it parks or returns.
func (r *refSched) start(g uint64, ctx context.Context, fn func(context.Context)) {
	r.cur = g
	go func() {
		fn(ctx)
		r.yield <- struct{}{}
	}()
	<-r.yield
}

func (r *refSched) park(ready func() bool) {
	r.wseq++
	w := &refWaiter{g: r.cur, ready: ready, resume: make(chan struct{})}
	r.waiters = append(r.waiters, w)
	r.yield <- struct{}{}
	<-w.resume
}

func (r *refSched) schedule(at time.Time, prio int, fn func()) (stop func() bool) {
	if at.Before(r.now) {
		at = r.now
	}
	r.seq++
	ev := &refEvent{at: at, prio: prio, seq: r.seq, fn: fn}
	i := sort.Search(len(r.events), func(i int) bool {
		o := r.events[i]
		if !o.at.Equal(at) {
			return o.at.After(at)
		}
		return o.prio > prio // seq is the largest so far: after its equals
	})
	r.events = append(r.events[:i:i], append([]*refEvent{ev}, r.events[i:]...)...)
	return func() bool {
		for i, o := range r.events {
			if o == ev {
				r.events = append(r.events[:i:i], r.events[i+1:]...)
				return true
			}
		}
		return false
	}
}

func (r *refSched) Now() time.Time { return r.now }

func (r *refSched) Go(ctx context.Context, fn func(context.Context)) {
	r.wseq++
	w := &refWaiter{g: r.wseq, ready: func() bool { return true }, resume: make(chan struct{})}
	r.waiters = append(r.waiters, w)
	go func() {
		<-w.resume
		fn(ctx)
		r.yield <- struct{}{}
	}()
}

func (r *refSched) Await(ctx context.Context, cond func() bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if cond() {
		return nil
	}
	r.park(func() bool { return ctx.Err() != nil || cond() })
	return ctx.Err()
}

func (r *refSched) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		return err // before the wake event: the Scheduler spends no sequence number on it either
	}
	fired := false
	stop := r.schedule(r.now.Add(d), prioTimer, func() { fired = true })
	defer stop()
	return r.Await(ctx, func() bool { return fired })
}

// refCtx ends with its own cause or its parent's, whichever came first.
type refCtx struct {
	context.Context
	err error
}

var refDone = make(chan struct{}) // non-nil: a refCtx can end; nobody receives from it

func (c *refCtx) Done() <-chan struct{} { return refDone }
func (c *refCtx) Err() error {
	if c.err != nil {
		return c.err
	}
	return c.Context.Err()
}
func (c *refCtx) cancel(err error) {
	if c.Err() == nil {
		c.err = err
	}
}

func (r *refSched) WithCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	c := &refCtx{Context: ctx}
	return c, func() { c.cancel(context.Canceled) }
}

func (r *refSched) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c := &refCtx{Context: ctx}
	stop := r.schedule(r.now.Add(d), prioTimer, func() { c.cancel(context.DeadlineExceeded) })
	return c, func() {
		stop()
		c.cancel(context.Canceled)
	}
}

// engine is what a generated program runs on: the Scheduler with its
// real Signal, Group and Recv, or the reference, where each of those is
// a polled condition.
type engine interface {
	Now() time.Time
	Go(ctx context.Context, fn func(context.Context))
	Sleep(ctx context.Context, d time.Duration) error
	Await(ctx context.Context, cond func() bool) error
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
	WithCancel(ctx context.Context) (context.Context, context.CancelFunc)
	after(ctx context.Context, d time.Duration, fn func(context.Context)) (stop func() bool)
	at(d time.Duration, fn func()) (stop func() bool)
	wait(sig int, ctx context.Context, cond func() bool) error
	notify(sig int)
	join(ctx context.Context, fns []func(context.Context))
	recv(ctx context.Context, ch chan int) bool
}

const progSlots = 6 // signals, flags, channels, cancel and timer slots a program draws from

type realEngine struct {
	*Scheduler
	sigs [progSlots]*Signal
}

func newRealEngine(s *Scheduler) *realEngine {
	e := &realEngine{Scheduler: s}
	for i := range e.sigs {
		e.sigs[i] = NewSignal(s)
	}
	return e
}

func (e *realEngine) after(ctx context.Context, d time.Duration, fn func(context.Context)) func() bool {
	return e.AfterFunc(ctx, d, fn).Stop
}
func (e *realEngine) at(d time.Duration, fn func()) func() bool {
	return e.At(e.Now().Add(d), fn).Stop
}
func (e *realEngine) wait(sig int, ctx context.Context, cond func() bool) error {
	return e.sigs[sig].Wait(ctx, cond)
}
func (e *realEngine) notify(sig int) { e.sigs[sig].Notify() }
func (e *realEngine) join(ctx context.Context, fns []func(context.Context)) {
	g := NewGroup(e.Scheduler)
	for _, fn := range fns {
		g.Go(ctx, fn)
	}
	g.Wait(ctx)
}
func (e *realEngine) recv(ctx context.Context, ch chan int) bool {
	_, ok := Recv(ctx, Source(e.Scheduler), ch)
	return ok
}

func (r *refSched) after(ctx context.Context, d time.Duration, fn func(context.Context)) func() bool {
	return r.schedule(r.now.Add(d), prioTimer, func() {
		if ctx.Err() == nil {
			r.wseq++
			r.start(r.wseq, ctx, fn)
		}
	})
}
func (r *refSched) at(d time.Duration, fn func()) func() bool {
	return r.schedule(r.now.Add(d), prioTransition, fn)
}
func (r *refSched) wait(_ int, ctx context.Context, cond func() bool) error {
	return r.Await(ctx, cond)
}
func (r *refSched) notify(int) {}
func (r *refSched) join(ctx context.Context, fns []func(context.Context)) {
	n := len(fns)
	for _, fn := range fns {
		fn := fn
		r.Go(ctx, func(ctx context.Context) {
			fn(ctx)
			n--
		})
	}
	r.Await(Detach(ctx), func() bool { return n == 0 })
}
func (r *refSched) recv(ctx context.Context, ch chan int) bool {
	if r.Await(ctx, func() bool { return len(ch) > 0 }) != nil {
		return false
	}
	<-ch // nobody else ran since the condition held
	return true
}

// A program is a tree of ops; each goroutine body carries the id its
// log lines are attributed to.
type opKind int

const (
	opSleep   opKind = iota
	opGo             // spawn body as goroutine id
	opGroup          // spawn kids as goroutines id, id+1, … and join them
	opTimeout        // run body under WithTimeout(d)
	opScope          // run body under WithCancel, its cancel in slot
	opCancel         // cancel whatever scope last took slot
	opWait           // Signal slot: wait until it was notified n times
	opNotify         // Signal slot: deposit and notify
	opAwait          // bare Await on flag slot
	opSet            // set flag slot
	opRecv           // Recv from channel slot
	opSend           // non-blocking send to channel slot
	opAfter          // AfterFunc(d) running body as goroutine id, its timer in slot
	opAt             // At(now+d) doing act on arg, its timer in slot
	opStop           // stop whatever timer last took slot
)

type op struct {
	kind   opKind
	d      time.Duration
	slot   int
	n, arg int
	id     int
	body   []op
	kids   [][]op
}

type progGen struct {
	rng   *rand.Rand
	ops   int // budget left
	ids   int // goroutine ids handed out
	waits int // signals that have their one waiter
}

// dur draws from few values, so many wakes share an instant and ties
// are decided by registration order.
func (g *progGen) dur() time.Duration {
	return time.Duration(g.rng.Intn(6)) * time.Millisecond
}

func (g *progGen) newID(n int) int {
	id := g.ids
	g.ids += n
	return id
}

// body generates a goroutine body. bounded says an enclosing timeout
// ends every wait in it; a wait that something else may never satisfy
// gets a timeout of its own otherwise, so every program terminates.
func (g *progGen) body(depth int, bounded bool) []op {
	var ops []op
	for n := 2 + g.rng.Intn(6); n > 0 && g.ops > 0; n-- {
		g.ops--
		o := op{slot: g.rng.Intn(progSlots), d: g.dur()}
		switch k := g.rng.Intn(16); {
		case depth > 0 && k == 0:
			o.kind, o.id = opGo, g.newID(1)
			o.body = g.body(depth-1, bounded)
		case depth > 0 && k == 1:
			o.kind, o.id = opGroup, g.newID(3)
			for i := 1 + g.rng.Intn(3); i > 0; i-- {
				o.kids = append(o.kids, g.body(depth-1, bounded))
			}
		case depth > 0 && k == 2:
			o.kind, o.d = opTimeout, 2*o.d+time.Millisecond
			o.body = g.body(depth-1, true)
		case depth > 0 && k == 3:
			o.kind = opScope
			o.body = g.body(depth-1, bounded)
		case depth > 0 && k == 4:
			o.kind, o.id = opAfter, g.newID(1)
			o.body = g.body(depth-1, bounded)
		case k == 5:
			o.kind = opCancel
		case k == 6 && g.waits < progSlots:
			o.kind, o.slot, o.n = opWait, g.waits, 1+g.rng.Intn(2)
			g.waits++
		case k == 7 || k == 8:
			o.kind, o.slot = opNotify, g.rng.Intn(g.waits+1)%progSlots // mostly a signal somebody waits on
		case k == 9:
			o.kind = opAwait
		case k == 10:
			o.kind = opSet
		case k == 11:
			o.kind = opRecv
		case k == 12:
			o.kind = opSend
		case k == 13:
			o.kind, o.n, o.arg = opAt, g.rng.Intn(3), g.rng.Intn(progSlots)
		case k == 14:
			o.kind = opStop
		default:
			o.kind = opSleep
		}
		if !bounded && (o.kind == opWait || o.kind == opAwait || o.kind == opRecv) {
			o = op{kind: opTimeout, d: 2*g.dur() + time.Millisecond, body: []op{o}}
		}
		ops = append(ops, o)
	}
	return ops
}

// progRun is one execution of a program on an engine.
type progRun struct {
	e     engine
	count [progSlots]atomic.Int32
	flags [progSlots]atomic.Bool
	chans [progSlots]chan int

	mu      sync.Mutex // the log and the slots; never held across an engine call
	log     []wake
	cancels [progSlots]context.CancelFunc
	timers  [progSlots]func() bool
}

func newProgRun(e engine) *progRun {
	p := &progRun{e: e}
	for i := range p.chans {
		p.chans[i] = make(chan int, 2) // a send finds room or is dropped; two lets receivers queue up behind one deposit
	}
	return p
}

// wake is one logged wake: the virtual instant, the goroutine, the
// cause, what a recv or a stop returned, and the error's text. It is
// compared as it is and formatted only to report a mismatch.
type wake struct {
	at    time.Duration
	g     int
	cause string
	ok    bool
	err   string
}

func (w wake) String() string {
	return fmt.Sprintf("%v g%d %s %v %s", w.at, w.g, w.cause, w.ok, w.err)
}

// wakeAt formats log's wake i, or "none" past its end.
func wakeAt(log []wake, i int) string {
	if i >= len(log) {
		return "none"
	}
	return log[i].String()
}

// woke logs one wake.
func (p *progRun) woke(id int, cause string, ok bool, err error) {
	w := wake{g: id, cause: cause, ok: ok, err: "<nil>"}
	if err != nil {
		w.err = err.Error()
	}
	p.mu.Lock()
	w.at = p.e.Now().Sub(epoch)
	p.log = append(p.log, w)
	p.mu.Unlock()
}

func (p *progRun) deposit(sig int) {
	p.count[sig].Add(1)
	p.e.notify(sig) // right after the deposit, as Signal asks
}

func (p *progRun) cancelSlot(slot int) {
	p.mu.Lock()
	cancel := p.cancels[slot]
	p.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (p *progRun) setTimer(slot int, stop func() bool) {
	p.mu.Lock()
	p.timers[slot] = stop
	p.mu.Unlock()
}

func (p *progRun) spawned(id int, body []op) func(context.Context) {
	return func(ctx context.Context) {
		p.woke(id, "spawn", false, nil)
		p.exec(ctx, id, body)
	}
}

func (p *progRun) exec(ctx context.Context, id int, ops []op) {
	e := p.e
	for _, o := range ops {
		o := o
		switch o.kind {
		case opSleep:
			p.woke(id, "sleep", false, e.Sleep(ctx, o.d))
		case opGo:
			e.Go(ctx, p.spawned(o.id, o.body))
		case opGroup:
			var fns []func(context.Context)
			for i, kid := range o.kids {
				fns = append(fns, p.spawned(o.id+i, kid))
			}
			e.join(ctx, fns)
			p.woke(id, "join", false, nil)
		case opTimeout:
			tctx, cancel := e.WithTimeout(ctx, o.d)
			p.exec(tctx, id, o.body)
			cancel()
		case opScope:
			sctx, cancel := e.WithCancel(ctx)
			p.mu.Lock()
			p.cancels[o.slot] = cancel
			p.mu.Unlock()
			p.exec(sctx, id, o.body)
			cancel()
		case opCancel:
			p.cancelSlot(o.slot)
		case opWait:
			p.woke(id, "wait", false, e.wait(o.slot, ctx, func() bool { return int(p.count[o.slot].Load()) >= o.n }))
		case opNotify:
			p.deposit(o.slot)
		case opAwait:
			p.woke(id, "await", false, e.Await(ctx, p.flags[o.slot].Load))
		case opSet:
			p.flags[o.slot].Store(true)
		case opRecv:
			p.woke(id, "recv", e.recv(ctx, p.chans[o.slot]), ctx.Err())
		case opSend:
			select {
			case p.chans[o.slot] <- id:
			default:
			}
		case opAfter:
			p.setTimer(o.slot, e.after(ctx, o.d, p.spawned(o.id, o.body)))
		case opAt:
			p.setTimer(o.slot, e.at(o.d, func() {
				switch o.n {
				case 0:
					p.flags[o.arg].Store(true)
				case 1:
					p.cancelSlot(o.arg)
				default:
					p.deposit(o.arg)
				}
			}))
		case opStop:
			p.mu.Lock()
			stop := p.timers[o.slot]
			p.mu.Unlock()
			if stop != nil {
				p.woke(id, "stop", stop(), nil)
			}
		}
	}
}

func genProgram(seed int64) []op {
	g := &progGen{rng: rand.New(rand.NewSource(seed)), ops: 120, ids: 1}
	// A few spawned bodies side by side, so that most programs have
	// somebody to notify, cancel and send to.
	o := op{kind: opGroup, id: g.newID(4)}
	for i := 0; i < 4; i++ {
		o.kids = append(o.kids, g.body(3, false))
	}
	return []op{o}
}

// TestSchedulerProgramsConcurrent runs the random programs on the
// Scheduler alone under a range of schedule seeds: each run must finish
// with nothing parked, and rerunning the same (program seed, schedule
// seed) pair must wake the same goroutines in the same order — a
// perturbed failure is one that replays.
func TestSchedulerProgramsConcurrent(t *testing.T) {
	exec := func(seed, sched int64) []wake {
		prog := genProgram(seed)
		var p *progRun
		s := runUnder(t, sched, func(ctx context.Context, s *Scheduler) {
			p = newProgRun(newRealEngine(s))
			p.exec(ctx, 0, prog)
		})
		assertNothingParked(t, s)
		return p.log
	}
	for sched := int64(1); sched <= scheduleSeeds(20); sched++ {
		for seed := int64(1); seed <= 50; seed++ {
			first, again := exec(seed, sched), exec(seed, sched)
			if !slices.Equal(first, again) {
				t.Fatalf("program seed %d, schedule seed %d: the rerun woke %d goroutines differently from the first run's %d",
					seed, sched, len(again), len(first))
			}
		}
	}
}

// TestSchedulerMatchesReference is the scheduler's contract: seeded
// random programs of every wait, spawn, timer and cancellation the
// package offers — nested scopes cancelled by siblings, parents and
// timers, notifies that land before, while and after their waiter is
// parked — run on the Scheduler and on refSched, and must wake the same
// goroutines at the same virtual instants for the same causes in the
// same order, end on the same clock, and leave nothing parked. The
// reference polls everything, so a mark the Scheduler forgot shows up
// as a missing or late line (or, with nothing else to run, a stall).
//
// Every program runs in registration order and then under each schedule
// seed, the reference taking the same perturbation; a failure names the
// (program seed, schedule seed) pair, and rerunning that pair replays
// it. Runs share nothing, so blocks of schedule seeds run in parallel.
func TestSchedulerMatchesReference(t *testing.T) {
	const block = 100
	last := scheduleSeeds(1000)
	for lo := int64(0); lo <= last; lo += block {
		hi := min(lo+block-1, last)
		t.Run(fmt.Sprintf("schedules=%d-%d", lo, hi), func(t *testing.T) {
			t.Parallel()
			for sched := lo; sched <= hi; sched++ {
				for seed := int64(1); seed <= 200; seed++ {
					matchReference(t, seed, sched)
				}
			}
		})
	}
}

// matchReference runs program seed on the Scheduler and on refSched, in
// registration order for schedule seed 0, else perturbed by it.
func matchReference(t *testing.T, seed, sched int64) {
	t.Helper()
	orderOf := func() *order {
		if sched == 0 {
			return nil
		}
		return newOrder(sched)
	}
	prog := genProgram(seed)

	ref := &refSched{now: epoch, order: orderOf(), yield: make(chan struct{})}
	want := newProgRun(ref)
	ref.run(func(ctx context.Context) { want.exec(ctx, 0, prog) })

	var got *progRun
	s := NewScheduler(NewClock(epoch), SchedulerOpts{})
	s.order = orderOf()
	runOn(t, s, func(ctx context.Context, s *Scheduler) {
		got = newProgRun(newRealEngine(s))
		got.exec(ctx, 0, prog)
	})
	if !s.Now().Equal(ref.now) {
		t.Errorf("program seed %d, schedule seed %d: run ended at %v, reference at %v", seed, sched, s.Now().Sub(epoch), ref.now.Sub(epoch))
	}
	for i := 0; i < len(want.log) || i < len(got.log); i++ {
		if i < len(want.log) && i < len(got.log) && want.log[i] == got.log[i] {
			continue
		}
		t.Fatalf("program seed %d, schedule seed %d: wake %d of %d is %q, the reference's %d has %q",
			seed, sched, i, len(got.log), wakeAt(got.log, i), len(want.log), wakeAt(want.log, i))
	}
	if len(ref.waiters) != 0 {
		t.Fatalf("program seed %d, schedule seed %d: the generator left %d waiters parked forever on the reference", seed, sched, len(ref.waiters))
	}
	assertNothingParked(t, s)
}

// assertNothingParked checks a finished run's books as they stood when
// it ended, before the end unwound what was left: no waiter parked, no
// event queued, no lease held.
func assertNothingParked(t *testing.T, s *Scheduler) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed || s.left != (pct.Left{}) {
		t.Fatalf("the run ended (%v) with %d waiters parked, %d events queued, %d leases held",
			s.closed, s.left.Parked, s.left.Queued, s.left.Leased)
	}
}

// polledNow reports how many parked waiters the dispatcher is polling.
func polledNow(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.polled)
}

// TestForeignCancellerMeansPolled attacks the classification from
// above: a std context.WithCancel in the chain, or a Run context that
// can be cancelled, can end a wait without the scheduler knowing, so
// the sleeper below it is polled — the polled set shows it — and wakes
// at the same virtual instant it always did: at the foreign cancel, or
// at its own timer. Without one the same sleeper sits on no list.
func TestForeignCancellerMeansPolled(t *testing.T) {
	sleeper := func(s *Scheduler, g *Group, ctx context.Context, want error, at time.Duration) {
		g.Go(ctx, func(ctx context.Context) {
			tctx, cancel := s.WithTimeout(ctx, time.Hour) // an inexact node under a foreign parent
			defer cancel()
			if err := s.Sleep(tctx, time.Minute); !errors.Is(err, want) {
				t.Errorf("sleep ended with %v, want %v", err, want)
			}
			if got := s.Now().Sub(epoch); got != at {
				t.Errorf("sleeper woke at %v, want %v", got, at)
			}
		})
	}
	t.Run("std cancel in the chain", func(t *testing.T) {
		s := run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
			std, cancel := context.WithCancel(ctx)
			defer cancel()
			g := NewGroup(s)
			sleeper(s, g, std, context.Canceled, 10*time.Second)
			sleeper(s, g, ctx, nil, time.Minute)
			s.Sleep(ctx, 10*time.Second)
			if n := polledNow(s); n != 1 {
				t.Errorf("%d waiters polled with two sleepers parked, want only the one under the std context", n)
			}
			cancel()
			g.Wait(ctx)
		})
		if s.stats.polledMax != 1 {
			t.Errorf("polled_max = %d, want 1", s.stats.polledMax)
		}
	})
	t.Run("cancellable Run context", func(t *testing.T) {
		s := NewScheduler(NewClock(epoch), SchedulerOpts{})
		rctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		err := s.Run(rctx, func(ctx context.Context) {
			g := NewGroup(s)
			sleeper(s, g, ctx, nil, time.Minute)
			s.Sleep(ctx, time.Second)
			if n := polledNow(s); n != 1 {
				t.Errorf("%d waiters polled under a cancellable Run context, want the sleeper", n)
			}
			g.Wait(ctx)
		})
		if err != nil || s.Stalls() != 0 {
			t.Fatalf("run: %v, %d stalls", err, s.Stalls())
		}
	})
}

// TestCancelTree attacks the tree itself: cancelling a grandparent
// wakes the sleepers three nodes down at that instant, in the order
// they parked; a child derived from an ended parent is born ended; and
// a wait detached from an ended node is woken by a notify only.
func TestCancelTree(t *testing.T) {
	var order []int
	run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		top, cancelTop := s.WithCancel(ctx)
		g := NewGroup(s)
		for i := 0; i < 6; i++ {
			i := i
			g.Go(top, func(ctx context.Context) {
				// Three more nodes between the cancelled one and the sleep.
				for d := 0; d < 3; d++ {
					var cancel context.CancelFunc
					if (i+d)%2 == 0 {
						ctx, cancel = s.WithCancel(ctx)
					} else {
						ctx, cancel = s.WithTimeout(ctx, time.Hour)
					}
					defer cancel()
				}
				if err := s.Sleep(ctx, time.Duration(10-i)*time.Minute); !errors.Is(err, context.Canceled) {
					t.Errorf("sleeper %d: %v, want Canceled", i, err)
				}
				if got := s.Now().Sub(epoch); got != 5*time.Second {
					t.Errorf("sleeper %d woke at %v, want the cancel's instant", i, got)
				}
				order = append(order, i) // one leased goroutine runs at a time
			})
		}
		s.Sleep(ctx, 5*time.Second)
		if n := polledNow(s); n != 0 {
			t.Errorf("%d waiters polled; every sleeper is under exact nodes", n)
		}
		cancelTop()
		g.Wait(ctx)

		child, cancelChild := s.WithTimeout(top, time.Hour)
		defer cancelChild()
		select {
		case <-child.Done():
		default:
			t.Error("a child of an ended node has an open Done")
		}
		if err := child.Err(); !errors.Is(err, context.Canceled) {
			t.Errorf("a child of an ended node was born with Err %v", err)
		}

		sig := NewSignal(s)
		var n atomic.Int32
		s.Go(ctx, func(ctx context.Context) {
			s.Sleep(ctx, time.Second)
			n.Store(1)
			sig.Notify()
		})
		if err := sig.Wait(Detach(child), func() bool { return n.Load() == 1 }); err != nil {
			t.Errorf("detached wait under an ended node: %v", err)
		}
		if got := s.Now().Sub(epoch); got != 6*time.Second {
			t.Errorf("detached wait ended at %v, want the notify's instant", got)
		}
	})
	if fmt.Sprint(order) != "[0 1 2 3 4 5]" {
		t.Errorf("cancelled sleepers woke in order %v, want the order they parked in", order)
	}
}

// TestMarksRaceRegistration attacks the one window a mark could fall
// into: a producer's deposit-and-Notify, or a scope's cancel, made on
// another thread by a goroutine outside the run — a TCP read loop, say
// — while the consumer checks and parks. Both the check and the
// registration happen under s.mu and so does the mark, so it either
// precedes the check (which then sees the deposit or the ended context)
// or finds the waiter. A lost one parks the consumer forever, on a wait
// no timer ends, and the run does not finish. Run under -race.
func TestMarksRaceRegistration(t *testing.T) {
	s := NewScheduler(NewClock(epoch), SchedulerOpts{})
	done := make(chan error, 1)
	go func() {
		done <- s.Run(context.Background(), func(ctx context.Context) {
			for i := 0; i < 2000; i++ {
				sig := NewSignal(s)
				var deposited atomic.Bool
				scope, cancel := s.WithCancel(ctx)
				go func() { // untracked on purpose, as the two below
					deposited.Store(true)
					sig.Notify()
				}()
				go cancel()
				if err := sig.Wait(ctx, deposited.Load); err != nil {
					t.Errorf("wait for the deposit: %v", err)
				}
				if err := NewSignal(s).Wait(scope, func() bool { return false }); !errors.Is(err, context.Canceled) {
					t.Errorf("wait under the cancelled scope: %v", err)
				}
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("scheduler run: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("the run did not finish: a notify or cancel from outside the run was lost")
	}
}

// TestNoWaiterOrContextLeaks runs 10⁴ RPC-shaped timeouts — derive a
// timeout context, sleep under it, cancel — under one long-lived scope,
// some ending by their deadline, and checks the books afterwards: the
// scope has no children and no waiters left, nothing is parked, marked
// or polled, and no deadline event is still queued.
func TestNoWaiterOrContextLeaks(t *testing.T) {
	var scope *deadlineCtx
	s := run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		sctx, cancel := s.WithCancel(ctx)
		defer cancel()
		scope = sctx.(*deadlineCtx)
		g := NewGroup(s)
		for w := 0; w < 10; w++ {
			g.Go(sctx, func(ctx context.Context) {
				for i := 0; i < 1000; i++ {
					tctx, cancel := s.WithTimeout(ctx, 60*time.Millisecond)
					s.Sleep(tctx, time.Duration(10+i%60)*time.Millisecond) // one in six outlives its deadline
					cancel()
				}
			})
		}
		g.Wait(ctx)
		s.mu.Lock()
		defer s.mu.Unlock()
		if scope.kids != nil || scope.waiters != nil {
			t.Errorf("the scope still holds children (%v) or waiters (%v)", scope.kids != nil, scope.waiters != nil)
		}
		if n := s.events.Len(); n != 0 {
			t.Errorf("%d events still queued after every timeout was cancelled", n)
		}
	})
	assertNothingParked(t, s)
}

// TestStallReportNamesTheWait: when the dispatcher has to fall back to
// real time, the report holds the stack of the goroutine parked on the
// wait nobody instruments — here a bare Await an untracked goroutine
// satisfies after real time has passed.
func TestStallReportNamesTheWait(t *testing.T) {
	s := NewScheduler(NewClock(epoch), SchedulerOpts{Grace: time.Millisecond})
	if s.StallReport() != "" {
		t.Error("a stall report before any stall")
	}
	err := s.Run(context.Background(), func(ctx context.Context) {
		var flag atomic.Bool
		go func() { // untracked on purpose
			for s.Stalls() == 0 {
				runtime.Gosched()
			}
			flag.Store(true)
		}()
		s.Await(ctx, flag.Load)
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stalls() == 0 {
		t.Fatal("the untracked wait did not stall the dispatcher")
	}
	if r := s.StallReport(); !strings.Contains(r, "TestStallReportNamesTheWait") || !strings.Contains(r, "(*Scheduler).Await") {
		t.Errorf("stall report does not name the parked wait:\n%s", r)
	}
}

// TestStallReportFitsEveryWait: the report holds the wait nobody
// instruments even behind more than a megabyte of other parked stacks —
// a few thousand goroutines parked, as at paper scale — where a
// fixed-size dump is cut off before it. The stalling goroutine is
// spawned after the others so that it is dumped after them.
func TestStallReportFitsEveryWait(t *testing.T) {
	s := NewScheduler(NewClock(epoch), SchedulerOpts{Grace: time.Millisecond})
	err := s.Run(context.Background(), func(ctx context.Context) {
		for i := 0; i < 4000; i++ {
			s.Go(ctx, func(ctx context.Context) {
				NewSignal(s).Wait(ctx, func() bool { return false }) // until the run ends
			})
		}
		var flag atomic.Bool
		g := NewGroup(s)
		g.Go(ctx, func(ctx context.Context) { s.Await(ctx, flag.Load) })
		go func() { // untracked on purpose
			for s.Stalls() == 0 {
				runtime.Gosched()
			}
			flag.Store(true)
		}()
		g.Wait(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	r := s.StallReport()
	if !strings.Contains(r, "(*Scheduler).Await(") {
		t.Errorf("the %d-byte stall report does not name the wait nobody instruments", len(r))
	}
	if len(r) <= 1<<20 {
		t.Errorf("the stall report holds %d bytes for 4 001 parked goroutines: the stack dump was cut off", len(r))
	}
}

// TestCounters pins the introspection counters on a run small enough
// to count by hand.
func TestCounters(t *testing.T) {
	s := run(t, SchedulerOpts{}, func(ctx context.Context, s *Scheduler) {
		s.At(s.Now().Add(time.Second), func() {})
		sig := NewSignal(s)
		var n atomic.Int32
		g := NewGroup(s)
		g.Go(ctx, func(ctx context.Context) { // a spawn mark
			s.Sleep(ctx, time.Second) // a timer mark
			n.Store(1)
			sig.Notify() // a notify mark
		})
		sig.Wait(ctx, func() bool { return n.Load() == 1 })
		tctx, cancel := s.WithTimeout(ctx, time.Second)
		defer cancel()
		s.Sleep(tctx, time.Minute) // a cancel mark, by the deadline event
		g.Wait(ctx)
	})
	got := map[string]float64{}
	s.Counters(func(name string, v float64) { got[name] = v })
	for name, want := range map[string]float64{
		"events_transition": 1,
		"events_timer":      2, // the child's wake and the deadline; the root's own wake event was stopped
		"marks_spawn":       1, "marks_timer": 1, "marks_cancel": 1,
		"marks_notify": 1, // the group's Done found nobody parked: kept, not a mark
		"wakes":        4, "parked": 0, "parked_max": 2, "polled": 0, "polled_max": 0,
		"leased_max": 2, "stalls": 0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v (all: %v)", name, got[name], want, got)
		}
	}
}

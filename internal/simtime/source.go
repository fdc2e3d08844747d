package simtime

import (
	"context"
	"sync/atomic"
	"time"
)

// Source is the single time surface the simulator and the real
// binaries share: a simulated wall clock for record timestamps and TTL
// math, a measurement pair (Stamp/Since), and the waiting primitives
// (Sleep, timeouts, timers, spawns). Two implementations exist:
//
//   - Scheduler (scheduler.go) is the discrete-event implementation
//     every simulated run uses: sleeps park on a priority queue and
//     virtual time jumps between events, so a 24 h scenario over 20k
//     peers replays in seconds.
//   - the wall clock (simtime.go), which cmd/ipfs-node and the gateway
//     run on. It has no constructor: a nil Source means it (OrWall).
//
// A node has one Source: its swarm is built over it and everything
// built on the swarm reads Swarm.Time.
type Source interface {
	// Now returns the current simulated wall-clock instant — the clock
	// records, TTLs and churn timelines are expressed in.
	Now() time.Time
	// Stamp returns an opaque start instant for duration measurement;
	// Since converts it to the time elapsed since. Under a Scheduler
	// both live on the virtual clock.
	Stamp() time.Time
	Since(t0 time.Time) time.Duration

	// Sleep pauses the calling goroutine for the simulated duration d,
	// or until ctx is done.
	Sleep(ctx context.Context, d time.Duration) error
	// WithTimeout derives a context cancelled after the simulated
	// duration d. The returned CancelFunc must be called to release the
	// timer.
	WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc)
	// WithCancel derives a context its CancelFunc ends. Everything above
	// the transport cancels through it rather than context.WithCancel:
	// under a Scheduler the cancel then wakes the waits parked below it,
	// which behind a context the scheduler does not own are polled.
	WithCancel(ctx context.Context) (context.Context, context.CancelFunc)
	// AfterFunc arranges for fn to run after the simulated duration d,
	// unless ctx is done first or the returned timer is stopped. fn
	// runs on its own goroutine and may itself sleep and spawn.
	AfterFunc(ctx context.Context, d time.Duration, fn func(context.Context)) *Timer
	// Go runs fn on a new goroutine. Under a Scheduler the goroutine is
	// registered with the dispatcher so virtual time cannot advance
	// while it is runnable; every goroutine spawned on a simulated
	// workload path must go through this (a plain `go` is invisible to
	// the scheduler and lets virtual time run ahead of it).
	Go(ctx context.Context, fn func(context.Context))
}

// Timer is a cancellable pending callback. Stop reports whether it was
// cancelled before firing; stopping an already-fired or already-stopped
// timer is a harmless no-op returning false.
type Timer struct {
	stop func() bool
}

// Stop cancels the timer if it has not fired yet.
func (t *Timer) Stop() bool {
	if t == nil || t.stop == nil {
		return false
	}
	return t.stop()
}

// SchedulerOf returns the Scheduler behind a Source, or nil when the
// source runs on real time. The wait primitives below use it to pick
// between the instrumented wait (Await) and the plain channel wait, so
// that no blocking site outside this package has to.
func SchedulerOf(src Source) *Scheduler {
	s, _ := src.(*Scheduler)
	return s
}

// Recv receives one value from ch, honouring ctx. Under a Scheduler the
// wait is instrumented (the dispatcher advances virtual time while the
// receiver is parked); otherwise it is a plain select. ok is false when
// ctx ended the wait.
func Recv[T any](ctx context.Context, src Source, ch <-chan T) (v T, ok bool) {
	if s := SchedulerOf(src); s != nil {
		for {
			if err := s.Await(ctx, func() bool { return len(ch) > 0 }); err != nil {
				return v, false
			}
			select {
			case v = <-ch:
				return v, true
			default:
				// Another receiver drained it between wake and recv;
				// park again.
			}
		}
	}
	select {
	case v = <-ch:
		return v, true
	case <-ctx.Done():
		return v, false
	}
}

// AwaitClosed waits until ch (a close-only broadcast channel) is
// closed, honouring ctx. Returns ctx.Err() if ctx ended the wait.
func AwaitClosed(ctx context.Context, src Source, ch <-chan struct{}) error {
	closed := func() bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	if s := SchedulerOf(src); s != nil {
		if err := s.Await(ctx, closed); err != nil {
			return err
		}
		return nil
	}
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Signal is the wake-up a multi-way wait is written on, once for the
// scheduler and the wall clock: any number of producers deposit a
// result somewhere the consumer's condition can see it without blocking
// (a buffered channel, a guarded queue, an atomic) and then call Notify;
// the single consumer calls Wait with that condition and drains,
// non-blocking, whatever it finds when Wait returns. On both sources
// the condition is re-checked after every Notify and not otherwise: a
// deposit nobody notifies is not seen (under a Scheduler the run then
// stalls or hangs, loudly), so Notify comes right after the deposit,
// before the producer parks. A notify that lands with nobody parked is
// kept for the next Wait; later ones coalesce into it. The zero value
// is NOT usable; use NewSignal.
type Signal struct {
	src Source
	// ch holds the wall clock's one pending notify. Nil under a Scheduler.
	ch chan struct{}

	// Under a Scheduler, guarded by its mu: the waiter parked in Wait,
	// which Notify marks for the dispatcher, or else the pending notify.
	sched   *Scheduler
	w       *waiter
	pending bool
}

// NewSignal creates a Signal over src.
func NewSignal(src Source) *Signal {
	s := &Signal{src: src, sched: SchedulerOf(src)}
	if s.sched == nil {
		s.ch = make(chan struct{}, 1)
	}
	return s
}

// Notify tells the consumer that the state its condition reads has
// changed. It never blocks; call it after the deposit.
func (s *Signal) Notify() {
	if s.sched != nil {
		s.sched.notify(s)
		return
	}
	select {
	case s.ch <- struct{}{}:
	default:
	}
}

// Wait parks the calling goroutine until cond reports true or ctx is
// done, in which case it returns ctx.Err(). cond must be a cheap,
// non-blocking read. Only one goroutine may wait on a Signal at a time.
// Under a Detach-ed context only a notify ends the wait.
func (s *Signal) Wait(ctx context.Context, cond func() bool) error {
	if s.sched != nil {
		return s.sched.await(ctx, cond, s, "Wait")
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if cond() {
			return nil
		}
		select {
		case <-s.ch:
		case <-ctx.Done():
		}
	}
}

// Group is a WaitGroup over a Source: its goroutines spawn through
// Source.Go and its waits park on a Signal every Done notifies, so
// fan-out/fan-in code (store fan-outs, crawl workers, WANT waves) runs
// unchanged on the event queue and on real time. One goroutine waits on
// a Group. The zero value is NOT usable; use NewGroup.
type Group struct {
	sig *Signal
	n   atomic.Int64
}

// NewGroup creates a Group over src.
func NewGroup(src Source) *Group { return &Group{sig: NewSignal(src)} }

// Go runs fn on a new tracked goroutine counted by the group.
func (g *Group) Go(ctx context.Context, fn func(context.Context)) {
	g.Add(1)
	g.sig.src.Go(ctx, func(ctx context.Context) {
		defer g.Done()
		fn(ctx)
	})
}

// Add registers n pending goroutines (call before spawning, as with
// sync.WaitGroup).
func (g *Group) Add(n int) { g.n.Add(int64(n)) }

// Done marks one goroutine finished and wakes the waiter.
func (g *Group) Done() {
	g.n.Add(-1)
	g.sig.Notify()
}

// Idle reports whether no goroutines are pending.
func (g *Group) Idle() bool { return g.n.Load() == 0 }

// Await parks until cond reports true or ctx is done (returning
// ctx.Err()); cond is re-checked after every Done, so it may read the
// group's own state — "the first result, or all answered, or the
// timeout" is Await(tctx, func() bool { return len(found) > 0 ||
// g.Idle() }). A goroutine that makes cond true must finish right after.
func (g *Group) Await(ctx context.Context, cond func() bool) error {
	return g.sig.Wait(ctx, cond)
}

// Wait blocks until all registered goroutines finished. ctx supplies
// the scheduler lease only; its cancellation does not cut the join
// short: the workers observe the same ctx and unwind promptly, and
// joining them keeps the counting invariants simple.
func (g *Group) Wait(ctx context.Context) {
	g.Await(Detach(ctx), g.Idle) // fails only when the scheduler shut down underneath us
}

// Detach returns a context keeping ctx's values — in particular the
// scheduler lease marker — while dropping its deadline and
// cancellation. Coordinators that must drain every worker outcome
// regardless of cancellation (workers observe the same ctx and unwind
// promptly, depositing into buffered channels) wait under a detached
// context so the drain stays instrumented without racing the cancel.
func Detach(ctx context.Context) context.Context { return detachedCtx{ctx} }

// detachedCtx keeps a context's values (in particular the scheduler
// lease marker) while dropping its deadline and cancellation.
type detachedCtx struct{ parent context.Context }

func (d detachedCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (d detachedCtx) Done() <-chan struct{}       { return nil }
func (d detachedCtx) Err() error                  { return nil }
func (d detachedCtx) Value(key any) any           { return d.parent.Value(key) }

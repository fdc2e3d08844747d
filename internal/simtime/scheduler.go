package simtime

import (
	"container/heap"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSchedulerClosed is returned from waits that were parked when the
// scheduler's Run loop exited (a leaked background goroutine observing
// the shutdown) and from waits attempted after it.
var ErrSchedulerClosed = errors.New("simtime: scheduler closed")

// Event priorities: at equal timestamps, liveness transitions apply
// before timer wakes (a peer churning offline at t is offline for a
// phase scheduled at t, matching the half-open churn intervals), and
// both before ordinary wakes. Ties within a priority break by sequence
// number, so a seeded run replays bit-for-bit.
const (
	prioTransition = iota // churn/liveness flips and other world state
	prioTimer             // sleeps, timeouts, AfterFunc callbacks
)

// event is one entry on the queue. fn runs on the dispatcher goroutine
// with the virtual clock already set to at; it must not block. Events
// that need to block (AfterFunc callbacks) wrap a tracked spawn.
type event struct {
	at      time.Time
	prio    int
	seq     uint64
	fn      func()
	stopped bool
	index   int // heap position, -1 once popped
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	if h[i].prio != h[j].prio {
		return h[i].prio < h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// waiter is a goroutine parked in Await. The dispatcher polls ready at
// quiescence, in registration order, and wakes the first that reports
// true by closing ch (after taking over its lease, so virtual time
// cannot advance underneath the wake).
type waiter struct {
	ready   func() bool
	ch      chan struct{}
	tracked bool
	err     error // set before wake when the scheduler is closing
}

// Scheduler is the discrete-event Source: one priority queue of
// timestamped events over a movable clock. Goroutines on the simulated
// workload path are leased — the dispatcher counts how many are
// runnable — and virtual time jumps to the next event only when every
// leased goroutine is parked in Sleep/Await. Seeded runs are
// bit-for-bit reproducible at Workers=1 (the default): ties break by
// sequence number and exactly one waiter wakes per quiescent instant.
//
// Build one with NewScheduler, drive it with Run, and hand it to
// configs as their simtime.Source.
type Scheduler struct {
	clock *Clock

	// Workers bounds how many ready events/waiters are dispatched per
	// quiescent instant. 1 (default) is deterministic lockstep; larger
	// values dispatch same-instant work concurrently — the -race
	// stress mode — at the cost of tie-order stability.
	workers int

	mu       sync.Mutex
	events   eventHeap
	seq      uint64
	waiters  []*waiter
	active   int
	kick     chan struct{}
	running  bool
	closed   bool
	closeCh  chan struct{}
	stalls   atomic.Int64
	grace    time.Duration
	dispatch atomic.Int64 // events fired, for tests/introspection
}

// SchedulerOpts tunes a Scheduler.
type SchedulerOpts struct {
	// Workers bounds concurrent dispatch of same-instant work;
	// 0 or 1 selects deterministic lockstep.
	Workers int
	// Grace is the real-time fallback the dispatcher waits before
	// re-polling when no tracked goroutine signals progress (an
	// uninstrumented wait somewhere). Each firing counts a stall;
	// deterministic tests assert Stalls() == 0. Default 2ms.
	Grace time.Duration
}

// NewScheduler builds a discrete-event scheduler over the given movable
// clock (shared with callers that read record timestamps off it).
func NewScheduler(clock *Clock, opts SchedulerOpts) *Scheduler {
	if clock == nil {
		clock = NewClock(time.Unix(0, 0))
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Grace <= 0 {
		opts.Grace = 2 * time.Millisecond
	}
	return &Scheduler{
		clock:   clock,
		workers: opts.Workers,
		kick:    make(chan struct{}, 1),
		closeCh: make(chan struct{}),
		grace:   opts.Grace,
	}
}

// Clock returns the underlying movable clock.
func (s *Scheduler) Clock() *Clock { return s.clock }

// Stalls reports how many times the dispatcher had to fall back to the
// real-time grace timer because no tracked goroutine signalled
// progress. A deterministic run keeps this at zero; a non-zero count
// means some wait on the workload path is not instrumented.
func (s *Scheduler) Stalls() int64 { return s.stalls.Load() }

// Dispatched reports how many queue events have fired.
func (s *Scheduler) Dispatched() int64 { return s.dispatch.Load() }

// --- Source implementation ---

func (s *Scheduler) Now() time.Time                   { return s.clock.Now() }
func (s *Scheduler) Stamp() time.Time                 { return s.clock.Now() }
func (s *Scheduler) Since(t0 time.Time) time.Duration { return s.clock.Now().Sub(t0) }

// lease is one leased goroutine's standing with the dispatcher: held
// while the goroutine is runnable (and counted in Scheduler.active),
// parked while it sits in Await. Every Run, Go and AfterFunc goroutine
// gets its own, carried by the context it is handed, and waits on that
// context. A wait on somebody else's lease — a plain `go` child that
// inherited a leased context, or a context captured or stored by
// another goroutine — would decrement a count the waiter never raised,
// which Stalls cannot see; it is told where it happens instead.
type lease struct {
	context.Context
	parked atomic.Bool
}

type leaseKey struct{}

func (l *lease) Value(key any) any {
	if key == (leaseKey{}) {
		return l
	}
	return l.Context.Value(key)
}

// leaseOf returns the lease ctx carries, or nil outside a scheduler run.
func leaseOf(ctx context.Context) *lease {
	l, _ := ctx.Value(leaseKey{}).(*lease)
	return l
}

// borrowed is the panic both lease checks raise.
func borrowed(call, state string) {
	panic("simtime: " + call + " " + state + ": two goroutines are waiting on one lease — " +
		"a plain `go` child on its parent's context, or a captured or stored context; " +
		"spawn through Source.Go and wait on the context it hands the goroutine")
}

// Go runs fn on a new goroutine leased to the scheduler: virtual time
// cannot advance while it is runnable.
//
// At Workers = 1 the spawn is lockstep: the child is registered as a
// ready waiter from the parent's goroutine — so sequence numbers follow
// program order, not goroutine-scheduling order — and starts only when
// the dispatcher hands it the floor. At most one leased goroutine is
// ever runnable, which is what makes seeded runs bit-for-bit
// reproducible. With Workers > 1 children start immediately and run
// concurrently (the -race stress mode).
func (s *Scheduler) Go(ctx context.Context, fn func(context.Context)) {
	l := &lease{Context: ctx}
	if s.workers == 1 {
		w := &waiter{ready: func() bool { return true }, ch: make(chan struct{}), tracked: true}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.waiters = append(s.waiters, w)
		s.mu.Unlock()
		select {
		case s.kick <- struct{}{}:
		default:
		}
		go func() {
			<-w.ch // the dispatcher granted our lease
			if w.err != nil {
				return
			}
			defer s.release(l)
			fn(l)
		}()
		return
	}
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	go func() {
		defer s.release(l)
		fn(l)
	}()
}

// release gives up lease l and kicks the dispatcher if the system went
// quiescent.
func (s *Scheduler) release(l *lease) {
	if l.parked.Load() {
		borrowed("return", "of a goroutine whose lease is parked in a wait")
	}
	s.mu.Lock()
	s.active--
	quiescent := s.active == 0
	s.mu.Unlock()
	if quiescent {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
}

// Await parks the calling goroutine until cond() reports true or ctx is
// done, releasing its lease so virtual time can advance meanwhile. The
// dispatcher evaluates cond only at quiescent instants, so cond must be
// a cheap, lock-free read (channel lengths, atomics, ctx.Err). Spurious
// wakes are possible when several goroutines contend for one condition;
// loop around Await if the guarded action can fail.
func (s *Scheduler) Await(ctx context.Context, cond func() bool) error {
	return s.await(ctx, cond, "Await")
}

func (s *Scheduler) await(ctx context.Context, cond func() bool, call string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedulerClosed
	}
	if cond() {
		s.mu.Unlock()
		return nil
	}
	l := leaseOf(ctx)
	if l != nil && !l.parked.CompareAndSwap(false, true) {
		s.mu.Unlock()
		borrowed(call, "on a lease that is already parked in a wait")
	}
	w := &waiter{
		ready:   func() bool { return ctx.Err() != nil || cond() },
		ch:      make(chan struct{}),
		tracked: l != nil,
	}
	s.waiters = append(s.waiters, w)
	if w.tracked {
		s.active--
	}
	quiescent := s.active == 0
	s.mu.Unlock()
	if quiescent {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	<-w.ch
	if l != nil {
		l.parked.Store(false)
	}
	if w.err != nil {
		return w.err
	}
	return ctx.Err()
}

// Sleep parks for the simulated duration d; the wake is an event on the
// queue, so the virtual clock jumps straight to it once everything else
// at earlier instants has run.
func (s *Scheduler) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	return s.sleepUntil(ctx, s.clock.Now().Add(d), "Sleep")
}

// SleepUntil parks until the virtual clock reaches t (immediately if it
// already has).
func (s *Scheduler) SleepUntil(ctx context.Context, t time.Time) error {
	if !s.clock.Now().Before(t) {
		return ctx.Err()
	}
	return s.sleepUntil(ctx, t, "SleepUntil")
}

func (s *Scheduler) sleepUntil(ctx context.Context, t time.Time, call string) error {
	var fired atomic.Bool
	tm := s.at(t, prioTimer, func() { fired.Store(true) })
	err := s.await(ctx, fired.Load, call)
	tm.Stop()
	return err
}

// At schedules fn to run on the dispatcher goroutine at virtual instant
// t (or the current instant, if t is in the past). fn must not block:
// it is for cheap world-state flips — churn transitions, timeout
// cancellations. Use AfterFunc for callbacks that do simulated work.
func (s *Scheduler) At(t time.Time, fn func()) *Timer {
	return s.at(t, prioTransition, fn)
}

func (s *Scheduler) at(t time.Time, prio int, fn func()) *Timer {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return &Timer{}
	}
	if now := s.clock.Now(); t.Before(now) {
		t = now // never schedule into the past: the clock only moves forward
	}
	s.seq++
	ev := &event{at: t, prio: prio, seq: s.seq, fn: fn}
	heap.Push(&s.events, ev)
	s.mu.Unlock()
	// Wake an idle dispatcher: scheduling from an untracked goroutine
	// (or before any lease exists) must still get the queue moving.
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return &Timer{stop: func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if ev.stopped || ev.index < 0 {
			return false
		}
		ev.stopped = true
		heap.Remove(&s.events, ev.index)
		return true
	}}
}

// AfterFunc arranges for fn to run after the simulated duration d on
// its own leased goroutine (it may sleep, spawn, and issue RPCs),
// unless ctx is done first or the timer is stopped.
func (s *Scheduler) AfterFunc(ctx context.Context, d time.Duration, fn func(context.Context)) *Timer {
	return s.at(s.clock.Now().Add(d), prioTimer, func() {
		if ctx.Err() != nil {
			return
		}
		// Dispatcher context: hand the callback a lease and run it on
		// its own goroutine — the "worker pool" execution of a ready
		// event. The dispatcher returns to waiting for quiescence.
		l := &lease{Context: ctx}
		s.mu.Lock()
		s.active++
		s.mu.Unlock()
		go func() {
			defer s.release(l)
			fn(l)
		}()
	})
}

// WithTimeout derives a context cancelled at a virtual deadline: the
// expiry is an event on the queue, not a real timer, so a 60 s RPC
// timeout costs nothing unless virtual time actually reaches it.
func (s *Scheduler) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c := &deadlineCtx{parent: ctx, deadline: s.clock.Now().Add(d), done: make(chan struct{})}
	c.stopParent = context.AfterFunc(ctx, func() { c.cancel(ctx.Err()) })
	tm := s.at(c.deadline, prioTimer, func() { c.cancel(context.DeadlineExceeded) })
	cancel := func() {
		tm.Stop()
		c.cancel(context.Canceled)
	}
	return c, cancel
}

// deadlineCtx is a context with a virtual-time deadline. Its Done
// channel closes when the deadline event fires, the CancelFunc runs, or
// the parent ends (propagated via context.AfterFunc).
type deadlineCtx struct {
	parent     context.Context
	deadline   time.Time
	stopParent func() bool

	mu   sync.Mutex // serializes cancel
	done chan struct{}
	// err is published before done closes, so Err — which the
	// dispatcher polls on every parked waiter at every quiescent
	// instant — is one atomic load, not a lock.
	err atomic.Pointer[error]
}

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	if pd, ok := c.parent.Deadline(); ok && pd.Before(c.deadline) {
		return pd, true
	}
	return c.deadline, true
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	if err := c.err.Load(); err != nil {
		return *err
	}
	perr := c.parent.Err()
	if perr != nil {
		// The two reads are not one: this context may have ended on its
		// own and the parent after it since the load above. Its own
		// cause came first and is what every later call reports.
		if err := c.err.Load(); err != nil {
			return *err
		}
	}
	return perr
}

func (c *deadlineCtx) Value(key any) any { return c.parent.Value(key) }

func (c *deadlineCtx) cancel(err error) {
	if err == nil {
		err = context.Canceled
	}
	c.mu.Lock()
	if c.err.Load() == nil {
		c.err.Store(&err)
		close(c.done)
	}
	c.mu.Unlock()
	if c.stopParent != nil {
		c.stopParent()
	}
}

// --- dispatcher ---

// Run executes root on a leased goroutine and drives the event queue
// from the calling goroutine until root has returned and every leased
// goroutine has finished or parked on a future it no longer holds.
// Events left in the queue afterwards (periodic background timers) are
// discarded; parked waiters are woken with ErrSchedulerClosed so
// background goroutines unwind. The scheduler cannot be reused after
// Run returns.
func (s *Scheduler) Run(ctx context.Context, root func(context.Context)) error {
	s.mu.Lock()
	if s.running || s.closed {
		s.mu.Unlock()
		return errors.New("simtime: scheduler already running or closed")
	}
	s.running = true
	s.active++
	s.mu.Unlock()

	var rootDone atomic.Bool
	l := &lease{Context: ctx}
	go func() {
		defer func() {
			rootDone.Store(true)
			s.release(l)
		}()
		root(l)
	}()

	graceTimer := time.NewTimer(s.grace)
	defer graceTimer.Stop()
	for {
		if err := ctx.Err(); err != nil {
			s.close()
			return err
		}
		s.mu.Lock()
		if s.active > 0 {
			s.mu.Unlock()
			// Leased goroutines are runnable: wait for the system to
			// go quiescent. The grace timer is only a safety net for
			// untracked progress; it does not count as a stall while
			// real work is running.
			if !graceTimer.Stop() {
				select {
				case <-graceTimer.C:
				default:
				}
			}
			graceTimer.Reset(s.grace)
			select {
			case <-s.kick:
			case <-graceTimer.C:
			case <-ctx.Done():
			}
			continue
		}
		if s.stepLocked() { // unlocks s.mu
			continue
		}
		// No ready waiter, no event fired: either we are done, or
		// progress depends on something untracked.
		s.mu.Lock()
		done := rootDone.Load() && s.active == 0 && len(s.waiters) == 0
		idle := s.active == 0 && s.events.Len() == 0
		s.mu.Unlock()
		if done {
			s.close()
			return nil
		}
		if idle && rootDone.Load() {
			// Root finished but waiters are parked with an empty
			// queue: they depend on untracked progress that will never
			// come. Close and let them unwind.
			s.close()
			return nil
		}
		s.stalls.Add(1)
		select {
		case <-s.kick:
		case <-time.After(s.grace):
		case <-ctx.Done():
		}
	}
}

// stepLocked performs one quiescent-instant dispatch round: wake up to
// Workers ready waiters (in registration order), or — when none are
// ready — pop the earliest event batch and fire it. Called with s.mu
// held; always unlocks. Reports whether any progress was made.
func (s *Scheduler) stepLocked() bool {
	// Ready waiters first: a wake at the current instant precedes any
	// clock advance.
	woken := 0
	for i := 0; i < len(s.waiters) && woken < s.workers; i++ {
		w := s.waiters[i]
		if !w.ready() {
			continue
		}
		s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
		i--
		if w.tracked {
			s.active++ // lease handoff before the wake
		}
		close(w.ch)
		woken++
	}
	if woken > 0 {
		s.mu.Unlock()
		return true
	}
	if s.events.Len() == 0 {
		s.mu.Unlock()
		return false
	}
	// Fire the earliest instant: all transition-priority events at that
	// timestamp (cheap, inline, mutually commutative), plus up to
	// Workers timer events.
	at := s.events[0].at
	s.clock.Set(at)
	var fired int
	var batch []*event
	for s.events.Len() > 0 && s.events[0].at.Equal(at) {
		if s.events[0].prio == prioTimer && fired >= s.workers {
			break
		}
		ev := heap.Pop(&s.events).(*event)
		if ev.prio == prioTimer {
			fired++
		}
		batch = append(batch, ev)
	}
	s.mu.Unlock()
	for _, ev := range batch {
		s.dispatch.Add(1)
		ev.fn()
	}
	return true
}

// close marks the scheduler finished and wakes every parked waiter with
// ErrSchedulerClosed.
func (s *Scheduler) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.running = false
	waiters := s.waiters
	s.waiters = nil
	s.events = nil
	s.mu.Unlock()
	close(s.closeCh)
	for _, w := range waiters {
		w.err = ErrSchedulerClosed
		close(w.ch)
	}
}

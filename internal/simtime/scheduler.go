package simtime

import (
	"container/heap"
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simtime/internal/pct"
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
// that need to block (AfterFunc callbacks) wrap a tracked spawn. A
// sleeper's wake event has no fn: the dispatcher marks wake itself.
type event struct {
	at      time.Time
	prio    int
	rank    uint64 // a timer's rank under a perturbed order (the higher fires first); else 0
	seq     uint64
	fn      func()
	wake    *waiter
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
	if h[i].rank != h[j].rank {
		return h[i].rank > h[j].rank
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

// waiter is a goroutine parked in a wait. Among the waiters that are
// ready at a quiescent instant the dispatcher wakes the one registered
// first (lowest seq), by closing ch after taking over its lease, so
// virtual time cannot advance underneath the wake.
//
// The dispatcher does not ask every parked waiter whether it is ready.
// A waiter is announced when everything that can turn ready() true
// tells the scheduler so — a mark — under s.mu: it then sits on no list
// the dispatcher reads until a mark pushes it on the ready heap, where
// it is evaluated once it is the lowest entry and, if it turns out not
// ready (a notify whose condition does not hold yet), dropped until its
// next mark. Marks have exactly four sources: Go (the spawn is born
// marked), the Sleep timer event, Signal.Notify, and the end of the
// context node the waiter is registered on. A waiter that cannot
// promise all of that — a bare Await(cond), Recv, AwaitClosed, or any
// wait under a context the scheduler does not own end to end — is not
// announced: it sits in s.polled and is evaluated every round, so a
// wait nobody classified still behaves as it always did, only slower.
//
// All fields but ch and err are guarded by s.mu.
type waiter struct {
	seq  uint64
	g    uint64          // its goroutine's key: the registration number of the goroutine's spawn
	cond func() bool     // nil: fired alone decides (spawns, sleepers)
	ctx  context.Context // its end ends the wait too; nil when it never ends
	ch   chan struct{}
	err  error // set before the wake when the scheduler is closing

	fired     bool // a spawn is born fired; a sleeper's timer event sets it
	tracked   bool
	announced bool
	queued    bool // on the ready heap

	prev, next         *waiter      // s.parked
	node               *deadlineCtx // the exact node ctx ends with, if announced under one
	nodePrev, nodeNext *waiter      // node.waiters
	sig                *Signal      // the signal it is parked on, if any
	timer              *event       // a sleeper's wake event, while pending
}

func (w *waiter) ready() bool {
	if w.ctx != nil && w.ctx.Err() != nil {
		return true
	}
	if w.cond != nil {
		return w.cond()
	}
	return w.fired
}

// Mark causes, as counted by the introspection counters.
const (
	markSpawn = iota
	markTimer
	markNotify
	markCancel
	markCauses
)

// Scheduler is the discrete-event Source: one priority queue of
// timestamped events over a movable clock. Goroutines on the simulated
// workload path are leased — the dispatcher counts how many are
// runnable — and virtual time jumps to the next event only when every
// leased goroutine is parked in a wait. Seeded runs are bit-for-bit
// reproducible: at most one leased goroutine runs at a time, event ties
// break by sequence number, and exactly one waiter — the ready one
// registered first — wakes per quiescent instant.
//
// Build one with NewScheduler, drive it with Run, and hand it to
// configs as their simtime.Source.
type Scheduler struct {
	clock *Clock

	mu     sync.Mutex
	events eventHeap
	seq    uint64
	batch  []*event // the dispatcher's scratch: one round's fn events

	// order, which only tests can set (package pct), ranks same-instant
	// ready waiters and timer events in place of registration order.
	order *order

	// The parked waiters (see waiter): all of them on the intrusive
	// parked list, the marked announced ones also on the ready heap
	// (keyed by seq, see before), the unannounced ones also in polled
	// (in seq order).
	wseq    uint64
	parked  *waiter
	nparked int
	ready   []*waiter
	polled  []*waiter

	active  int
	kick    chan struct{}
	running bool
	closed  bool
	left    pct.Left // what the run left behind when it ended
	stalls  atomic.Int64
	grace   time.Duration

	stats       schedStats
	stallReport string
}

// schedStats are the dispatcher's introspection counters (Counters),
// guarded by s.mu.
type schedStats struct {
	eventsTransition, eventsTimer int64
	wakes                         int64
	marks                         [markCauses]int64
	rounds                        int64 // dispatch rounds
	parkedSum, polledSum          int64 // parked / polled set sizes summed over rounds
	polledEvals                   int64 // ready() calls the polled scan made
	staleReady                    int64 // ready-heap entries popped not ready
	parkedMax, polledMax          int
	leased, leasedMax             int
}

// SchedulerOpts tunes a Scheduler.
type SchedulerOpts struct {
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
	if opts.Grace <= 0 {
		opts.Grace = 2 * time.Millisecond
	}
	s := &Scheduler{clock: clock, kick: make(chan struct{}, 1), grace: opts.Grace}
	if built := pct.Built.Load(); built != nil {
		(*built)(s)
	}
	return s
}

func init() {
	pct.Perturb = func(sched any, seed int64) { sched.(*Scheduler).order = newOrder(seed) } // before Run
	pct.Ended = func(sched any) (pct.Left, bool) {
		s := sched.(*Scheduler)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.left, s.closed
	}
}

// Clock returns the underlying movable clock.
func (s *Scheduler) Clock() *Clock { return s.clock }

// Stalls reports how many times the dispatcher had to fall back to the
// real-time grace timer because no tracked goroutine signalled
// progress. A deterministic run keeps this at zero; a non-zero count
// means some wait on the workload path is not instrumented, and
// StallReport names the waits that were parked at the first one.
func (s *Scheduler) Stalls() int64 { return s.stalls.Load() }

// StallReport returns the stacks of the goroutines that were parked in
// the scheduler's waits when the dispatcher counted its first stall:
// whatever they were waiting for was going to come, if at all, from
// something the scheduler cannot see. Empty while Stalls is zero.
func (s *Scheduler) StallReport() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stallReport
}

// Dispatched reports how many queue events have fired.
func (s *Scheduler) Dispatched() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.eventsTransition + s.stats.eventsTimer
}

// Counters reports the dispatcher's introspection counters by name
// (telemetry.Registry.RecordScheduler publishes them as simtime_*
// gauges; docs/OPERATIONS.md lists them).
func (s *Scheduler) Counters(emit func(name string, value float64)) {
	s.mu.Lock()
	st, parked, polled := s.stats, s.nparked, len(s.polled)
	s.mu.Unlock()
	perRound := func(sum int64) float64 {
		if st.rounds == 0 {
			return 0
		}
		return float64(sum) / float64(st.rounds)
	}
	emit("events_transition", float64(st.eventsTransition))
	emit("events_timer", float64(st.eventsTimer))
	emit("wakes", float64(st.wakes))
	emit("marks_spawn", float64(st.marks[markSpawn]))
	emit("marks_timer", float64(st.marks[markTimer]))
	emit("marks_notify", float64(st.marks[markNotify]))
	emit("marks_cancel", float64(st.marks[markCancel]))
	emit("rounds", float64(st.rounds))
	emit("parked", float64(parked))
	emit("parked_max", float64(st.parkedMax))
	emit("parked_mean", perRound(st.parkedSum))
	emit("polled", float64(polled))
	emit("polled_max", float64(st.polledMax))
	emit("polled_mean", perRound(st.polledSum))
	emit("polled_evals", float64(st.polledEvals))
	emit("ready_stale", float64(st.staleReady))
	emit("leased_max", float64(st.leasedMax))
	emit("stalls", float64(s.stalls.Load()))
}

// --- Source implementation ---

func (s *Scheduler) Now() time.Time                   { return s.clock.Now() }
func (s *Scheduler) Stamp() time.Time                 { return s.clock.Now() }
func (s *Scheduler) Since(t0 time.Time) time.Duration { return s.clock.Now().Sub(t0) }

// lease is one leased goroutine's standing with the dispatcher: held
// while the goroutine is runnable (and counted in Scheduler.active),
// parked while it sits in a wait. Every Run, Go and AfterFunc goroutine
// gets its own, carried by the context it is handed, and waits on that
// context. A wait on somebody else's lease — a plain `go` child that
// inherited a leased context, or a context captured or stored by
// another goroutine — would decrement a count the waiter never raised,
// which Stalls cannot see; it is told where it happens instead.
type lease struct {
	context.Context
	parked atomic.Bool
	g      uint64 // the goroutine's key (waiter.g); Run's root is 0
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

// newLeaseLocked issues a lease over ctx to goroutine g.
func (s *Scheduler) newLeaseLocked(ctx context.Context, g uint64) *lease {
	s.stats.leased++
	if s.stats.leased > s.stats.leasedMax {
		s.stats.leasedMax = s.stats.leased
	}
	return &lease{Context: ctx, g: g}
}

// borrowed is the panic both lease checks raise.
func borrowed(call, state string) {
	panic("simtime: " + call + " " + state + ": two goroutines are waiting on one lease — " +
		"a plain `go` child on its parent's context, or a captured or stored context; " +
		"spawn through Source.Go and wait on the context it hands the goroutine")
}

// kickDispatcher wakes a dispatcher that is waiting for the system to
// go quiescent (or idling through a stall); it never blocks.
func (s *Scheduler) kickDispatcher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// Go runs fn on a new goroutine leased to the scheduler: virtual time
// cannot advance while it is runnable.
//
// The spawn is lockstep: the child is registered as a waiter born ready
// and marked from the parent's goroutine — so sequence numbers follow
// program order, not goroutine-scheduling order — and starts only when
// the dispatcher hands it the floor. At most one leased goroutine is
// ever runnable, which is what makes seeded runs bit-for-bit
// reproducible.
func (s *Scheduler) Go(ctx context.Context, fn func(context.Context)) {
	w := &waiter{fired: true, ch: make(chan struct{}), tracked: true}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.registerLocked(w, true)
	w.g = w.seq
	l := s.newLeaseLocked(ctx, w.g)
	s.markLocked(w, markSpawn)
	idle := s.active == 0
	s.mu.Unlock()
	if idle { // spawned from outside the run
		s.kickDispatcher()
	}
	go func() {
		<-w.ch // the dispatcher granted our lease
		if w.err != nil {
			return
		}
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
	s.stats.leased--
	quiescent := s.active == 0
	s.mu.Unlock()
	if quiescent {
		s.kickDispatcher()
	}
}

// Await parks the calling goroutine until cond() reports true or ctx is
// done, releasing its lease so virtual time can advance meanwhile.
// Nothing tells the scheduler when a bare condition changes, so the
// waiter is polled: the dispatcher evaluates cond at every quiescent
// instant until it holds, under the scheduler's lock — cond must be a
// cheap, lock-free read (channel lengths, atomics). It is the fallback
// for waits no primitive covers; a wait that has a producer belongs on
// a Signal, whose Notify is what wakes it. Spurious wakes are possible
// when several goroutines contend for one condition; loop around Await
// if the guarded action can fail.
func (s *Scheduler) Await(ctx context.Context, cond func() bool) error {
	return s.await(ctx, cond, nil, "Await")
}

// await is Await, or with sig the scheduler's half of Signal.Wait: the
// waiter is announced and only sig's notifies (and ctx ending) put it
// in front of the dispatcher.
func (s *Scheduler) await(ctx context.Context, cond func() bool, sig *Signal, call string) error {
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
	w := &waiter{cond: cond, sig: sig, ch: make(chan struct{})}
	return s.parkLocked(ctx, w, sig != nil, call)
}

// parkLocked parks the calling goroutine on w until the dispatcher
// wakes it, and returns what ended the wait. announced says the
// waiter's condition is (see waiter); whether its context is too is
// decided here, once: a context that cannot end needs no watch; one
// whose Done channel is that of an exact scheduler-owned node ends only
// through that node's cancel, which marks the waiters registered on it;
// behind anything else — a std cancel context, a cancellable Run
// context — somebody else can end the wait without telling, and the
// waiter is polled. Called with s.mu held; unlocks.
//
// The caller's cond() check, this registration and every mark happen
// under s.mu, so a notify or cancel racing the park is not lost: either
// it came first and the check saw its deposit, or it finds the waiter.
func (s *Scheduler) parkLocked(ctx context.Context, w *waiter, announced bool, call string) error {
	l := leaseOf(ctx)
	if l != nil && !l.parked.CompareAndSwap(false, true) {
		s.mu.Unlock()
		borrowed(call, "on a lease that is already parked in a wait")
	}
	w.tracked = l != nil
	if done := ctx.Done(); done != nil {
		w.ctx = ctx
		if c := nodeOf(ctx); announced && c != nil && c.s == s && c.exact && c.done == done {
			w.ctx, w.node = c, c // whatever wraps the node passes its Done through: ask the node
			w.nodeNext = c.waiters
			if c.waiters != nil {
				c.waiters.nodePrev = w
			}
			c.waiters = w
		} else {
			announced = false
		}
	}
	s.registerLocked(w, announced)
	if w.g = w.seq; l != nil { // an untracked waiter stands for itself
		w.g = l.g
	}
	if w.node != nil && w.node.err.Load() != nil {
		s.markLocked(w, markCancel) // ended since the caller looked
	}
	if sig := w.sig; sig != nil {
		sig.w = w
		if sig.pending {
			sig.pending = false
			s.markLocked(w, markNotify)
		}
	}
	if w.tracked {
		s.active--
	}
	quiescent := s.active == 0
	s.mu.Unlock()
	if quiescent {
		s.kickDispatcher()
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

// registerLocked adds w to the parked set, in polled unless announced.
func (s *Scheduler) registerLocked(w *waiter, announced bool) {
	s.wseq++
	w.seq = s.wseq
	w.announced = announced
	w.next = s.parked
	if s.parked != nil {
		s.parked.prev = w
	}
	s.parked = w
	s.nparked++
	if s.nparked > s.stats.parkedMax {
		s.stats.parkedMax = s.nparked
	}
	if !announced {
		s.polled = append(s.polled, w)
		if len(s.polled) > s.stats.polledMax {
			s.stats.polledMax = len(s.polled)
		}
	}
}

// unparkLocked takes w off every list it is on.
func (s *Scheduler) unparkLocked(w *waiter) {
	if w.prev != nil {
		w.prev.next = w.next
	} else {
		s.parked = w.next
	}
	if w.next != nil {
		w.next.prev = w.prev
	}
	w.prev, w.next = nil, nil
	s.nparked--
	if c := w.node; c != nil {
		if w.nodePrev != nil {
			w.nodePrev.nodeNext = w.nodeNext
		} else {
			c.waiters = w.nodeNext
		}
		if w.nodeNext != nil {
			w.nodeNext.nodePrev = w.nodePrev
		}
		w.node, w.nodePrev, w.nodeNext = nil, nil, nil
	}
	if w.sig != nil {
		w.sig.w = nil
	}
	if w.timer != nil {
		s.stopLocked(w.timer) // the wait ended before its wake event
		w.timer = nil
	}
}

// markLocked tells the dispatcher that w may have become ready. A
// polled waiter is looked at every round anyway.
func (s *Scheduler) markLocked(w *waiter, cause int) {
	s.stats.marks[cause]++
	if !w.announced || w.queued {
		return
	}
	w.queued = true
	// Sift up the heap ordered by before.
	h := append(s.ready, w)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.before(h[p], w) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = w
	s.ready = h
}

// before reports whether waiter a wakes ahead of b: it was registered
// first or, under a perturbed order, its goroutine ranks higher.
func (s *Scheduler) before(a, b *waiter) bool {
	if s.order != nil {
		if ra, rb := s.order.rank(a.g), s.order.rank(b.g); ra != rb {
			return ra > rb
		}
	}
	return a.seq < b.seq
}

// popReadyLocked removes the ready heap's first entry.
func (s *Scheduler) popReadyLocked() {
	h := s.ready
	n := len(h) - 1
	h[0].queued = false
	last := h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s.before(h[c+1], h[c]) {
				c++
			}
			if s.before(last, h[c]) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	s.ready = h
}

// notify is Signal.Notify under the scheduler: it marks the waiter
// parked on sig, or, with nobody parked, is kept for the next Wait.
func (s *Scheduler) notify(sig *Signal) {
	s.mu.Lock()
	if sig.w != nil {
		s.markLocked(sig.w, markNotify)
	} else {
		sig.pending = true
	}
	idle := s.active == 0
	s.mu.Unlock()
	if idle { // notified from outside the run
		s.kickDispatcher()
	}
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

// sleepUntil parks an announced waiter whose wake event the dispatcher
// fires itself: it sets fired and marks the sleeper in the same
// critical section that popped the event.
func (s *Scheduler) sleepUntil(ctx context.Context, t time.Time, call string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedulerClosed
	}
	w := &waiter{ch: make(chan struct{})}
	w.timer = s.pushLocked(t, prioTimer, nil)
	w.timer.wake = w
	return s.parkLocked(ctx, w, true, call)
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
	ev := s.pushLocked(t, prio, fn)
	s.mu.Unlock()
	// Wake an idle dispatcher: scheduling from an untracked goroutine
	// (or before any lease exists) must still get the queue moving.
	s.kickDispatcher()
	return &Timer{stop: func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.stopLocked(ev)
	}}
}

// pushLocked queues an event at t (never in the past: the clock only
// moves forward).
func (s *Scheduler) pushLocked(t time.Time, prio int, fn func()) *event {
	if now := s.clock.Now(); t.Before(now) {
		t = now
	}
	s.seq++
	ev := &event{at: t, prio: prio, seq: s.seq, fn: fn}
	if s.order != nil && prio == prioTimer {
		ev.rank = s.order.rank(timerKey(s.seq))
	}
	heap.Push(&s.events, ev)
	return ev
}

// stopLocked removes ev from the queue, reporting whether it was still
// pending.
func (s *Scheduler) stopLocked(ev *event) bool {
	if ev.stopped || ev.index < 0 || s.closed { // close drops the whole queue
		return false
	}
	ev.stopped = true
	heap.Remove(&s.events, ev.index)
	return true
}

// AfterFunc arranges for fn to run after the simulated duration d on
// its own leased goroutine (it may sleep, spawn, and issue RPCs),
// unless ctx is done first or the timer is stopped.
func (s *Scheduler) AfterFunc(ctx context.Context, d time.Duration, fn func(context.Context)) *Timer {
	return s.at(s.clock.Now().Add(d), prioTimer, func() {
		if ctx.Err() != nil {
			return
		}
		// Dispatcher context: hand the callback a lease, under a
		// registration number of its own, and run it on its own
		// goroutine. The dispatcher returns to waiting for quiescence.
		s.mu.Lock()
		s.active++
		s.wseq++
		l := s.newLeaseLocked(ctx, s.wseq)
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
	return s.newCtx(ctx, s.clock.Now().Add(d))
}

// WithCancel derives a context the scheduler owns: cancelling it wakes
// the waits parked under it directly, where a context.WithCancel in the
// chain would leave each of them polled.
func (s *Scheduler) WithCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	return s.newCtx(ctx, time.Time{})
}

// deadlineCtx is the scheduler's context: one node of a cancel tree the
// scheduler owns, with (WithTimeout) or without (WithCancel) a virtual
// deadline of its own. It ends when the deadline event fires, the
// CancelFunc runs, or the parent ends.
//
// A node is exact when nothing outside the scheduler can end it: its
// parent never ends (Done() == nil), or the nearest node above it is
// exact and that node's Done channel is the parent's — leases,
// WithValue and telemetry wrappers pass Done through, so channel
// identity proves no foreign canceller sits between the two. An exact
// node is a child of that node: the parent's cancel ends it in the same
// critical section, marks the waiters registered on it, and its Err is
// one atomic load. Any other node is inexact: the parent's end reaches
// it through context.AfterFunc, some time later on another goroutine,
// so its Err asks the parent too and waits under it are polled.
type deadlineCtx struct {
	parent   context.Context
	s        *Scheduler
	deadline time.Time // zero: none of its own
	exact    bool
	done     chan struct{}
	// err is published before done closes, so Err is an atomic load,
	// not a lock.
	err atomic.Pointer[error]

	// Guarded by s.mu. The tree links exist on exact nodes only.
	up               *deadlineCtx // the exact node this one is a child of
	kids             *deadlineCtx // first child
	prevSib, nextSib *deadlineCtx
	waiters          *waiter // announced waiters parked under this node
	timer            *event  // the deadline event, while pending
	stopParent       func() bool
}

type nodeKey struct{}

// nodeOf returns the nearest deadlineCtx in ctx's chain, or nil.
func nodeOf(ctx context.Context) *deadlineCtx {
	c, _ := ctx.Value(nodeKey{}).(*deadlineCtx)
	return c
}

func (s *Scheduler) newCtx(parent context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	c := &deadlineCtx{parent: parent, s: s, deadline: deadline, done: make(chan struct{})}
	var up *deadlineCtx
	pdone := parent.Done()
	if pdone != nil {
		if p := nodeOf(parent); p != nil && p.s == s && p.exact && p.done == pdone {
			up = p
		}
	}
	c.exact = pdone == nil || up != nil
	s.mu.Lock()
	if !deadline.IsZero() && !s.closed {
		c.timer = s.pushLocked(deadline, prioTimer, c.expire)
	}
	if up != nil {
		if perr := up.err.Load(); perr != nil {
			c.cancelLocked(*perr) // born ended
		} else {
			c.up, c.nextSib = up, up.kids
			if up.kids != nil {
				up.kids.prevSib = c
			}
			up.kids = c
		}
	}
	if !c.exact {
		// Registered under s.mu so that a parent already done, whose
		// callback starts at once, finds stopParent set.
		c.stopParent = context.AfterFunc(parent, func() { c.cancel(parent.Err()) })
	}
	s.mu.Unlock()
	return c, func() { c.cancel(context.Canceled) }
}

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	pd, ok := c.parent.Deadline()
	if c.deadline.IsZero() || (ok && pd.Before(c.deadline)) {
		return pd, ok
	}
	return c.deadline, true
}

func (c *deadlineCtx) Done() <-chan struct{} { return c.done }

func (c *deadlineCtx) Err() error {
	if err := c.err.Load(); err != nil {
		return *err
	}
	if c.exact {
		return nil
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

func (c *deadlineCtx) Value(key any) any {
	if key == (nodeKey{}) {
		return c
	}
	return c.parent.Value(key)
}

// expire is the deadline event.
func (c *deadlineCtx) expire() { c.cancel(context.DeadlineExceeded) }

func (c *deadlineCtx) cancel(err error) {
	c.s.mu.Lock()
	c.cancelLocked(err)
	idle := c.s.active == 0
	c.s.mu.Unlock()
	if idle { // cancelled from outside the run, as Notify can be
		c.s.kickDispatcher()
	}
}

// cancelLocked ends c with err unless it has ended already, and with it
// everything below: it marks the waiters registered on c and cancels
// c's children, so a waiter three nodes down is on the ready heap
// before s.mu is released.
func (c *deadlineCtx) cancelLocked(err error) {
	if c.err.Load() != nil {
		return
	}
	if !c.exact {
		if perr := c.parent.Err(); perr != nil {
			err = perr // the parent ended first; its callback is merely still on its way
		}
	}
	if err == nil {
		err = context.Canceled
	}
	c.err.Store(&err)
	close(c.done)
	if c.timer != nil {
		c.s.stopLocked(c.timer)
		c.timer = nil
	}
	if c.stopParent != nil {
		c.stopParent()
	}
	for w := c.waiters; w != nil; w = w.nodeNext {
		c.s.markLocked(w, markCancel)
	}
	for k := c.kids; k != nil; {
		next := k.nextSib
		k.up, k.prevSib, k.nextSib = nil, nil, nil
		k.cancelLocked(err)
		k = next
	}
	c.kids = nil
	if up := c.up; up != nil {
		if c.prevSib != nil {
			c.prevSib.nextSib = c.nextSib
		} else {
			up.kids = c.nextSib
		}
		if c.nextSib != nil {
			c.nextSib.prevSib = c.prevSib
		}
		c.up, c.prevSib, c.nextSib = nil, nil, nil
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
	l := s.newLeaseLocked(ctx, 0)
	s.mu.Unlock()

	var rootDone atomic.Bool
	go func() {
		defer func() {
			rootDone.Store(true)
			s.release(l)
		}()
		root(l)
	}()

	for {
		if err := ctx.Err(); err != nil {
			s.close()
			return err
		}
		s.mu.Lock()
		if s.active > 0 {
			s.mu.Unlock()
			// Leased goroutines are runnable: wait for the system to go
			// quiescent. The one that makes it so kicks.
			select {
			case <-s.kick:
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
		done := rootDone.Load() && s.active == 0 && s.nparked == 0
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
		if s.stalls.Add(1) == 1 {
			s.captureStall()
		}
		select {
		case <-s.kick:
		case <-time.After(s.grace):
		case <-ctx.Done():
		}
	}
}

// captureStall records, once, where the goroutines parked in the
// scheduler's waits are: one of them waits for something the scheduler
// cannot see.
func (s *Scheduler) captureStall() {
	// A dump that fills the buffer was cut off: grow it until all fits.
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	buf = buf[:n]
	var b strings.Builder
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "simtime.(*Scheduler).parkLocked") {
			b.WriteString(g)
			b.WriteString("\n\n")
		}
	}
	s.mu.Lock()
	s.stallReport = b.String()
	s.mu.Unlock()
}

// nextReadyLocked removes and returns the ready waiter that wakes first
// (see before), or nil. Marked waiters come off the ready heap in that
// order; one that is not ready is dropped until its next mark. The
// polled ones are evaluated in registration order, and only those that
// wake before the heap's candidate can beat it: in registration order
// the first ready one does.
func (s *Scheduler) nextReadyLocked() *waiter {
	var top *waiter
	for len(s.ready) > 0 {
		if w := s.ready[0]; w.ready() {
			top = w
			break
		}
		s.popReadyLocked()
		s.stats.staleReady++
	}
	at := -1
	for i, w := range s.polled {
		if top != nil && !s.before(w, top) {
			if s.order == nil {
				break
			}
			continue
		}
		s.stats.polledEvals++
		if w.ready() {
			top, at = w, i
		}
	}
	if at >= 0 {
		s.polled = slices.Delete(s.polled, at, at+1)
	} else if top != nil {
		s.popReadyLocked()
	}
	return top
}

// stepLocked performs one quiescent-instant dispatch round: wake the
// ready waiter that wakes first, or — when none is ready — fire the
// earliest instant's transitions and its first timer event. Called
// with s.mu held; always unlocks. Reports whether any progress was made.
func (s *Scheduler) stepLocked() bool {
	s.stats.rounds++
	s.stats.parkedSum += int64(s.nparked)
	s.stats.polledSum += int64(len(s.polled))
	// Ready waiters first: a wake at the current instant precedes any
	// clock advance.
	if w := s.nextReadyLocked(); w != nil {
		s.unparkLocked(w)
		if w.tracked {
			s.active++ // lease handoff before the wake
		}
		if s.order != nil {
			s.order.woke(w.g)
		}
		s.stats.wakes++
		close(w.ch)
		s.mu.Unlock()
		return true
	}
	if s.events.Len() == 0 {
		s.mu.Unlock()
		return false
	}
	// Fire the earliest instant: all transition-priority events at that
	// timestamp (cheap, inline, mutually commutative), then its first
	// timer event. A sleeper's wake is done here, under the lock: nothing
	// but the next round's ready() can observe it.
	at := s.events[0].at
	s.clock.Set(at)
	var fired bool
	batch := s.batch[:0]
	for s.events.Len() > 0 && s.events[0].at.Equal(at) {
		if s.events[0].prio == prioTimer && fired {
			break
		}
		ev := heap.Pop(&s.events).(*event)
		if ev.prio == prioTimer {
			fired = true
			s.stats.eventsTimer++
		} else {
			s.stats.eventsTransition++
		}
		if w := ev.wake; w != nil {
			w.fired, w.timer = true, nil
			s.markLocked(w, markTimer)
			continue
		}
		batch = append(batch, ev)
	}
	s.mu.Unlock()
	for i, ev := range batch {
		ev.fn()
		batch[i] = nil
	}
	s.batch = batch[:0] // dispatcher-only scratch
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
	s.left = pct.Left{Parked: s.nparked, Queued: s.events.Len(), Leased: s.stats.leased}
	s.events = nil
	for w := s.parked; w != nil; w = s.parked {
		s.unparkLocked(w)
		w.err = ErrSchedulerClosed
		close(w.ch)
	}
	s.ready, s.polled = nil, nil
	s.mu.Unlock()
}

// Package simtime provides the one time surface everything above the
// transport programs against, and its two implementations.
//
// Source (source.go) is that surface: wall-clock reads for timestamps
// and TTL math, Stamp/Since measurement, and the waiting primitives
// (Sleep, WithTimeout, AfterFunc, tracked Go spawns). Scheduler
// (scheduler.go) implements it as a discrete-event engine where sleeps
// park on a priority queue and virtual time jumps between events —
// paper-scale populations replay hours of simulated time in seconds,
// deterministically at Workers=1. Scaled (below) implements it over
// real time: the daemons' wall clock at scale 1, and the compressed
// real time the experiments not yet ported to the scheduler run on.
// Code written against Source runs unchanged on either; a nil Source
// means the wall clock, resolved by OrWall and nowhere else.
package simtime

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// spinThreshold is the real duration below which Sleep busy-waits
// instead of using a timer: Go timers have ~1 ms granularity, which
// would otherwise swamp sub-millisecond scaled latencies and distort
// simulated measurements.
const spinThreshold = 2 * time.Millisecond

// scaled is the real-time Source: simulated durations are waited out as
// scale × d of real time and measured back by the inverse, and Now
// reads whichever wall clock it was built over.
type scaled struct {
	scale float64          // real = sim * scale
	now   func() time.Time // what Now reads
}

// wall is the identity real-time source every nil Source resolves to.
var wall Source = &scaled{scale: 1, now: time.Now}

// Scaled returns the real-time Source compressing simulated time by
// scale (0.01 runs 100x faster than real; <= 0 selects 1) whose Now
// reads now — a movable Clock's method in the scaled experiments — or
// the real wall clock when now is nil.
func Scaled(scale float64, now func() time.Time) Source {
	if scale <= 0 {
		scale = 1
	}
	if now == nil {
		now = time.Now
	}
	return &scaled{scale: scale, now: now}
}

// OrWall resolves the "nil Source means the wall clock" rule: it
// returns src, or the unscaled real-time source when src is nil. Every
// constructor that accepts an optional Source passes it through here.
func OrWall(src Source) Source {
	if src == nil {
		return wall
	}
	return src
}

// real converts a simulated duration to the real duration to wait.
func (s *scaled) real(sim time.Duration) time.Duration {
	return time.Duration(float64(sim) * s.scale)
}

// sim converts an elapsed real duration back to simulated time.
func (s *scaled) sim(real time.Duration) time.Duration {
	return time.Duration(float64(real) / s.scale)
}

func (s *scaled) Now() time.Time                   { return s.now() }
func (s *scaled) Stamp() time.Time                 { return time.Now() }
func (s *scaled) Since(t0 time.Time) time.Duration { return s.sim(time.Since(t0)) }

// notLeased panics when ctx belongs to a goroutine leased to a
// Scheduler. Such a context reaching the real-time source means some
// component inside a simulated run was built without the run's source:
// its waits would burn real time invisibly to the dispatcher, which
// Stalls cannot see. The daemons never carry a lease.
func notLeased(ctx context.Context, call string) {
	if leased(ctx) {
		panic("simtime: " + call + " on the real-time source from a goroutine leased to a Scheduler: " +
			"something in the simulated run was built with a nil or real-time Source")
	}
}

// Sleep pauses for the scaled equivalent of d, or until ctx is done.
// Short scaled durations busy-wait for precision (see spinThreshold).
func (s *scaled) Sleep(ctx context.Context, d time.Duration) error {
	notLeased(ctx, "Sleep")
	real := s.real(d)
	if real <= 0 {
		return ctx.Err()
	}
	if real < spinThreshold {
		deadline := time.Now().Add(real)
		for i := 0; time.Now().Before(deadline); i++ {
			if i%64 == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			runtime.Gosched()
		}
		return nil
	}
	t := time.NewTimer(real)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *scaled) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	notLeased(ctx, "WithTimeout")
	return context.WithTimeout(ctx, s.real(d))
}

func (s *scaled) AfterFunc(ctx context.Context, d time.Duration, fn func(context.Context)) *Timer {
	notLeased(ctx, "AfterFunc")
	t := time.AfterFunc(s.real(d), func() {
		if ctx.Err() == nil {
			fn(ctx)
		}
	})
	return &Timer{stop: t.Stop}
}

func (s *scaled) Go(ctx context.Context, fn func(context.Context)) {
	notLeased(ctx, "Go")
	go fn(ctx)
}

// Clock is a movable simulated wall clock. Scenario engines set or
// advance it between workload phases so record timestamps, TTL expiry
// and churn-timeline liveness all observe the same simulated instant;
// pass its Now method wherever a `func() time.Time` clock is expected.
// It is safe for concurrent use.
type Clock struct {
	mu  sync.Mutex
	now time.Time
}

// NewClock creates a clock frozen at start.
func NewClock(start time.Time) *Clock {
	return &Clock{now: start}
}

// Now returns the current simulated instant.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Set jumps the clock to t. Scenario engines only move it forward, but
// the clock itself does not enforce monotonicity.
func (c *Clock) Set(t time.Time) {
	c.mu.Lock()
	c.now = t
	c.mu.Unlock()
}

// Advance moves the clock forward by d and returns the new instant.
func (c *Clock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// Jitter derives a deterministic offset in [0, interval) from seed —
// typically a PeerID plus a cycle name. Periodic background cycles
// (the 12 h republish, snapshot refresh crawls) delay their first tick
// by it, so a fleet of nodes started together spreads its cycles
// across the interval instead of thundering-herding the same ticks.
func Jitter(seed string, interval time.Duration) time.Duration {
	if interval <= 0 {
		return 0
	}
	// FNV-1a over the seed; no dependency on hash/fnv needed for the
	// 64-bit variant.
	h := uint64(14695981039346656037)
	for i := 0; i < len(seed); i++ {
		h ^= uint64(seed[i])
		h *= 1099511628211
	}
	return time.Duration(h % uint64(interval))
}

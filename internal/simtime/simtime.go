// Package simtime provides the one time surface everything above the
// transport programs against, and its two implementations.
//
// Source (source.go) is that surface: wall-clock reads for timestamps
// and TTL math, Stamp/Since measurement, and the waiting primitives
// (Sleep, WithTimeout, AfterFunc, tracked Go spawns). Scheduler
// (scheduler.go) implements it as a discrete-event engine where sleeps
// park on a priority queue and virtual time jumps between events —
// everything simulated runs on it, paper-scale populations replay hours
// of simulated time in seconds, deterministically. The
// daemons run on the wall clock, the unexported real-time source below.
// Code written against Source runs unchanged on either; a nil Source
// means the wall clock, resolved by OrWall and nowhere else.
package simtime

import (
	"context"
	"sync"
	"time"
)

// wallSource is the real-time Source: the wall clock and Go's timers.
type wallSource struct{}

// OrWall resolves the "nil Source means the wall clock" rule: it
// returns src, or the real-time source when src is nil. Every
// constructor that accepts an optional Source passes it through here,
// and it is the only way to reach the real-time source.
func OrWall(src Source) Source {
	if src == nil {
		return wallSource{}
	}
	return src
}

func (wallSource) Now() time.Time                   { return time.Now() }
func (wallSource) Stamp() time.Time                 { return time.Now() }
func (wallSource) Since(t0 time.Time) time.Duration { return time.Since(t0) }

// notLeased panics when ctx belongs to a goroutine leased to a
// Scheduler. Such a context reaching the real-time source means some
// component inside a simulated run was built without the run's source:
// its waits would burn real time invisibly to the dispatcher, which
// Stalls cannot see. The daemons never carry a lease.
func notLeased(ctx context.Context, call string) {
	if leaseOf(ctx) != nil {
		panic("simtime: " + call + " on the real-time source from a goroutine leased to a Scheduler: " +
			"something in the simulated run was built with a nil Source")
	}
}

// Sleep pauses for d, or until ctx is done.
func (wallSource) Sleep(ctx context.Context, d time.Duration) error {
	notLeased(ctx, "Sleep")
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (wallSource) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	notLeased(ctx, "WithTimeout")
	return context.WithTimeout(ctx, d)
}

func (wallSource) WithCancel(ctx context.Context) (context.Context, context.CancelFunc) {
	notLeased(ctx, "WithCancel")
	return context.WithCancel(ctx)
}

func (wallSource) AfterFunc(ctx context.Context, d time.Duration, fn func(context.Context)) *Timer {
	notLeased(ctx, "AfterFunc")
	t := time.AfterFunc(d, func() {
		if ctx.Err() == nil {
			fn(ctx)
		}
	})
	return &Timer{stop: t.Stop}
}

func (wallSource) Go(ctx context.Context, fn func(context.Context)) {
	notLeased(ctx, "Go")
	go fn(ctx)
}

// Clock is a movable simulated wall clock: a Scheduler's dispatcher
// sets it to each event's instant, and record timestamps, TTL expiry and
// churn-timeline liveness all read that one instant. Unit tests of
// clock-reading code move one by hand; pass its Now method wherever a
// `func() time.Time` clock is expected. It is safe for concurrent use.
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

// Set jumps the clock to t. The dispatcher only moves it forward, but
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

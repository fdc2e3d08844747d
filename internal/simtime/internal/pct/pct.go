// Package pct is how simtest reaches the Scheduler's schedule
// perturbation: only the simtime tree can import it, so no program can.
// simtime installs the hooks when it loads.
package pct

import "sync/atomic"

// Left is what a run left behind when it ended; all zero if nothing.
type Left struct{ Parked, Queued, Leased int }

var (
	// Perturb makes sched, a *simtime.Scheduler not yet run, order its
	// same-instant work by schedule seed.
	Perturb func(sched any, seed int64)
	// Ended reports what sched's run left behind, and whether it ended.
	Ended func(sched any) (Left, bool)
	// Built, while set, is called with every Scheduler built.
	Built atomic.Pointer[func(sched any)]
	// Race reports the race detector, under which runs are about ten
	// times slower: explorations cover fewer schedule seeds.
	Race bool
)

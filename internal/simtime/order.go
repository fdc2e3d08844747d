package simtime

// order is a schedule seed's perturbation of the same-instant order,
// which only tests can set (package pct): PCT (Burckhardt et al., "A
// Randomized Scheduler with Probabilistic Guarantees of Finding Bugs",
// ASPLOS 2010). Each goroutine ranks by a random priority keyed by the
// registration number of its spawn, and at d-1 seeded wake counts the
// goroutine woken is demoted below the rest. A run's length is not
// known, so the change points are drawn log-uniformly up to 2^20 wakes
// rather than uniformly over it.
type order struct {
	seed    uint64
	changes [2]uint64 // d = 3
	wakes   uint64
	demoted map[uint64]uint64 // goroutine key → rank since its change point
}

func newOrder(seed int64) *order {
	o := &order{seed: mix(uint64(seed)), demoted: map[uint64]uint64{}}
	for i := range o.changes {
		r := mix(o.seed + uint64(i) + 1)
		o.changes[i] = 1 + r>>8%(1<<(r%21))
	}
	return o
}

// rank is the priority of goroutine key k, or of timerKey(seq): the
// higher goes first.
func (o *order) rank(k uint64) uint64 {
	if r, ok := o.demoted[k]; ok {
		return r
	}
	return mix(o.seed^k) | 1<<63
}

// woke counts a wake of goroutine k, demoting k at a change point.
func (o *order) woke(k uint64) {
	o.wakes++
	for i, c := range o.changes {
		if c == o.wakes {
			o.demoted[k] = uint64(i + 1)
		}
	}
}

// timerKey ranks a timer event among those sharing its instant.
func timerKey(seq uint64) uint64 { return seq | 1<<63 }

// mix is splitmix64's finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

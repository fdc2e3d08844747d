package gwfleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring placing CIDs onto gateway instances.
// Each instance projects vnodes virtual points onto a 64-bit circle
// (SHA-256 of "name#replica", the same construction every participant
// computes independently), and a CID lands on the first point at or
// clockwise-after its own hash. Virtual nodes smooth the per-instance
// load to within a few percent of uniform, and adding or removing one
// instance only remaps the keys between its points and their
// predecessors — the swift/auklet ring property that lets a fleet
// resize without a global cache flush.
type Ring struct {
	points []ringPoint // sorted ascending by hash
	n      int         // distinct instances
}

type ringPoint struct {
	hash uint64
	node int
}

// DefaultVNodes is the virtual-node count per instance when NewRing is
// given zero: enough to keep max/mean instance load under ~1.1 for
// small fleets.
const DefaultVNodes = 128

// NewRing builds a ring over n instances (named by index) with vnodes
// virtual points each.
func NewRing(n, vnodes int) *Ring {
	if n <= 0 {
		panic("gwfleet: ring over zero instances")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{n: n, points: make([]ringPoint, 0, n*vnodes)}
	for node := 0; node < n; node++ {
		for v := 0; v < vnodes; v++ {
			h := hash64(fmt.Sprintf("gw-%d#%d", node, v))
			r.points = append(r.points, ringPoint{hash: h, node: node})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].node < r.points[b].node
	})
	return r
}

// Place returns the owning instance for key.
func (r *Ring) Place(key string) int {
	return r.points[r.search(hash64(key))].node
}

// Successors returns up to n distinct instances in ring order starting
// at key's owner — the owner first, then the spill-over targets an
// overloaded owner sheds toward (they hold no local cache entry for the
// key but share the fleet cache tier).
func (r *Ring) Successors(key string, n int) []int {
	if n > r.n {
		n = r.n
	}
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	i := r.search(hash64(key))
	for len(out) < n {
		p := r.points[i%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
		i++
	}
	return out
}

// search finds the index of the first point with hash >= h, wrapping to
// 0 past the last point.
func (r *Ring) search(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// hash64 maps a key onto the ring circle via the first 8 bytes of its
// SHA-256 — stable across processes, unlike Go's seeded map hash.
func hash64(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

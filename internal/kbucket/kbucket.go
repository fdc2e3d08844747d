// Package kbucket implements the Kademlia routing table of §2.3: the
// 256-bit SHA256 key space is split into i = 256 buckets of k = 20
// nodes each, ordered by XOR distance from the local peer.
package kbucket

import (
	"bytes"
	"crypto/sha256"
	"math/bits"
	"sort"
	"sync"

	"repro/internal/peer"
)

// Defaults from §2.3.
const (
	DefaultK   = 20  // bucket size / replication factor
	NumBuckets = 256 // one per bit of the SHA256 key space
	KeyLen     = 32  // bytes
)

// Key is a 256-bit DHT key.
type Key [KeyLen]byte

// KeyForPeer derives the DHT key of a peer: SHA256 of its binary PeerID.
// It is the one derivation of a peer's key; callers compute it where a
// peer enters a table or a walk and keep the result, never inside a
// comparator.
func KeyForPeer(id peer.ID) Key {
	// A PeerID is a 34-byte multihash: hashing it from a stack buffer
	// spares the heap copy a []byte(id) conversion of that length makes.
	var buf [64]byte
	if len(id) > len(buf) {
		return sha256.Sum256([]byte(id))
	}
	return sha256.Sum256(buf[:copy(buf[:], id)])
}

// KeyForBytes derives the DHT key for arbitrary bytes (e.g. a binary
// CID): CIDs and PeerIDs share the key space via SHA256 (§2.3).
func KeyForBytes(b []byte) Key {
	return sha256.Sum256(b)
}

// XOR returns the Kademlia distance between two keys.
func XOR(a, b Key) Key {
	var out Key
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// Less reports whether distance a is smaller than distance b.
func Less(a, b Key) bool { return bytes.Compare(a[:], b[:]) < 0 }

// CommonPrefixLen returns the number of leading bits a and b share,
// which selects the bucket index.
func CommonPrefixLen(a, b Key) int {
	for i := 0; i < KeyLen; i++ {
		if x := a[i] ^ b[i]; x != 0 {
			return i*8 + bits.LeadingZeros8(x)
		}
	}
	return NumBuckets
}

// Entry is one routing-table slot. Key is KeyForPeer(ID), handed in when
// Insert admits the peer and kept for as long as the entry lives
// (including across the move-to-back refresh), so ranking the table
// never hashes.
type Entry struct {
	ID  peer.ID
	Key Key
}

// Table is a thread-safe Kademlia routing table.
type Table struct {
	mu     sync.RWMutex
	self   Key
	selfID peer.ID
	k      int
	// buckets[i] holds the peers sharing i leading bits with self, in
	// LRU order (front = oldest). The slice ends at the highest bucket in
	// use: a table of n peers fills about log2(n) of the 256 possible.
	buckets [][]Entry
}

// NewTable creates a routing table for the local peer. k <= 0 selects
// the default of 20.
func NewTable(self peer.ID, k int) *Table {
	if k <= 0 {
		k = DefaultK
	}
	return &Table{self: KeyForPeer(self), selfID: self, k: k}
}

// K returns the bucket size.
func (t *Table) K() int { return t.k }

func (t *Table) bucketIndex(key Key) int {
	cpl := CommonPrefixLen(t.self, key)
	if cpl >= NumBuckets {
		cpl = NumBuckets - 1
	}
	return cpl
}

// bucket returns bucket i, empty when the table holds none that far;
// t.mu must be held.
func (t *Table) bucket(i int) []Entry {
	if i < len(t.buckets) {
		return t.buckets[i]
	}
	return nil
}

// Insert adds a peer whose key, KeyForPeer(id), the caller already
// holds, returning true if it was added or refreshed. A peer already
// present moves to the back of its bucket (most recently seen). Full
// buckets reject newcomers (plain Kademlia keeps long-lived peers, which
// §5.3's churn analysis motivates). The local peer is never added.
func (t *Table) Insert(id peer.ID, key Key) bool {
	if id == t.selfID {
		return false
	}
	idx := t.bucketIndex(key)
	t.mu.Lock()
	defer t.mu.Unlock()
	bucket := t.bucket(idx)
	for i, e := range bucket {
		if e.ID == id {
			copy(bucket[i:], bucket[i+1:])
			bucket[len(bucket)-1] = e
			return true
		}
	}
	if len(bucket) >= t.k {
		return false
	}
	for len(t.buckets) <= idx {
		t.buckets = append(t.buckets, nil)
	}
	t.buckets[idx] = append(bucket, Entry{ID: id, Key: key})
	return true
}

// Add is Insert with the key derived here. It remains only because the
// frozen perfbench/ harness calls it, and goes when perfbench/ is next
// edited; every other caller hands the key it holds to Insert.
func (t *Table) Add(id peer.ID) bool { return t.Insert(id, KeyForPeer(id)) }

// Remove deletes a peer (e.g. after a failed dial).
func (t *Table) Remove(id peer.ID) {
	idx := t.bucketIndex(KeyForPeer(id))
	t.mu.Lock()
	defer t.mu.Unlock()
	bucket := t.bucket(idx)
	for i, e := range bucket {
		if e.ID == id {
			t.buckets[idx] = append(bucket[:i:i], bucket[i+1:]...)
			return
		}
	}
}

// Contains reports whether id is in the table.
func (t *Table) Contains(id peer.ID) bool {
	idx := t.bucketIndex(KeyForPeer(id))
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, e := range t.bucket(idx) {
		if e.ID == id {
			return true
		}
	}
	return false
}

// Len returns the total number of peers in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size()
}

func (t *Table) size() int {
	n := 0
	for _, b := range t.buckets {
		n += len(b)
	}
	return n
}

// ranked is a peer decorated with its XOR distance to a target.
type ranked struct {
	dist Key
	id   peer.ID
}

// NearestPeers returns up to count peers closest to key by XOR
// distance, closest first. It ranks the keys the entries store — no
// hashing, no sort of the whole table — and sweeps the buckets in
// distance order, so it stops as soon as count peers are held.
//
// With cpl the number of leading bits key shares with the local key,
// peers in bucket cpl share more than cpl bits with key, peers in the
// buckets beyond it share exactly cpl, and peers in a bucket i < cpl
// share exactly i: every peer of one group is closer than every peer of
// the next, and only within a group does the order need working out.
func (t *Table) NearestPeers(key Key, count int) []peer.ID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if n := t.size(); count > n {
		count = n
	}
	if count <= 0 {
		return nil
	}
	best := make([]ranked, 0, count)
	cpl := t.bucketIndex(key)
	best = keepNearest(best, t.bucket(cpl), key)
	if len(best) < count {
		for i := cpl + 1; i < len(t.buckets); i++ {
			best = keepNearest(best, t.buckets[i], key)
		}
	}
	for i := min(cpl, len(t.buckets)) - 1; i >= 0 && len(best) < count; i-- {
		best = keepNearest(best, t.buckets[i], key)
	}
	out := make([]peer.ID, len(best))
	for i, r := range best {
		out[i] = r.id
	}
	return out
}

// keepNearest merges bucket into best, which is sorted by distance to
// key and never grows past its capacity: a peer enters a full best only
// by displacing its farthest.
func keepNearest(best []ranked, bucket []Entry, key Key) []ranked {
	for _, e := range bucket {
		dist := XOR(e.Key, key)
		i := len(best)
		if i < cap(best) {
			best = append(best, ranked{})
		} else if i--; !Less(dist, best[i].dist) {
			continue
		}
		for ; i > 0 && Less(dist, best[i-1].dist); i-- {
			best[i] = best[i-1]
		}
		best[i] = ranked{dist: dist, id: e.ID}
	}
	return best
}

// AllPeers returns every peer in the table, bucket by bucket and in each
// bucket's LRU order. The crawler uses this to enumerate k-buckets
// (§4.1).
func (t *Table) AllPeers() []peer.ID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var all []peer.ID
	for _, b := range t.buckets {
		for _, e := range b {
			all = append(all, e.ID)
		}
	}
	return all
}

// BucketSizes returns the occupancy of each non-empty bucket keyed by
// common-prefix length, for diagnostics.
func (t *Table) BucketSizes() map[int]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[int]int)
	for i, b := range t.buckets {
		if len(b) > 0 {
			out[i] = len(b)
		}
	}
	return out
}

// SortByDistance sorts ids in place by XOR distance from key. Each id is
// hashed once, up front; the comparator compares the stored distances.
func SortByDistance(ids []peer.ID, key Key) {
	byDist := make([]ranked, len(ids))
	for i, id := range ids {
		byDist[i] = ranked{dist: XOR(KeyForPeer(id), key), id: id}
	}
	sort.Slice(byDist, func(i, j int) bool { return Less(byDist[i].dist, byDist[j].dist) })
	for i, r := range byDist {
		ids[i] = r.id
	}
}

// Closer reports whether a is strictly closer to key than b.
func Closer(a, b peer.ID, key Key) bool {
	return Less(XOR(KeyForPeer(a), key), XOR(KeyForPeer(b), key))
}

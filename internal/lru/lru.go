// Package lru is the repository's one least-recently-used cache. The
// gateway's nginx web cache (§3.4), the fleet-shared object cache,
// block.LRUStore and the swarm's 900-peer address book (§3.2) are all
// instances of Cache; none of them keeps a recency list of its own.
//
// The contract, pinned by lru_test.go against a naive slice model:
// Get refreshes recency, Has does not; a Put of a key already present
// refreshes recency without replacing the value; a value larger than
// the whole cap is refused; eviction removes strictly the least
// recently used entries until the newcomer fits, so Used never exceeds
// the cap.
//
// Entries live in slots linked by index into the recency list, found
// through a map from key to slot index. A deleted or evicted slot goes
// on a free list the next Put takes from, so no more slots exist than
// the most entries ever held at once, and an entry costs no allocation
// of its own beyond its key and value. Slots come in fixed pages: the
// cache grows without copying the slots it has.
package lru

import "sync"

// Cache is a capped LRU from string keys to V. The caller states each
// value's size at Put, in whatever unit the cap is in: bytes for a
// byte slice or a block, 1 for an entry counted by number. All methods
// are safe for concurrent use.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int64
	used  int64
	pages [][]slot[V] // slot i is pages[i/pageLen][i%pageLen]
	slots int32       // slots handed out since the last Clear: the most entries held at once
	index map[string]int32
	head  int32 // most recently used slot; none when the cache is empty
	tail  int32 // least recently used slot
	free  int32 // first free slot, chained through next
}

const (
	pageLen       = 32
	none    int32 = -1 // ends the recency list and the free list
)

type slot[V any] struct {
	key        string
	val        V
	size       int64
	prev, next int32 // towards head and towards tail; next chains the free list
}

// New returns an empty cache bounded to capacity.
func New[V any](capacity int64) *Cache[V] {
	return &Cache[V]{cap: capacity, index: make(map[string]int32), head: none, tail: none, free: none}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.toFront(i)
	return c.at(i).val, true
}

// Has reports whether key is cached, without refreshing its recency.
func (c *Cache[V]) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// Put caches val, of the given size, under key, evicting least recently
// used entries until it fits. A key already present is only refreshed;
// a value larger than the cap is not cached.
func (c *Cache[V]) Put(key string, val V, size int64) {
	if size > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.toFront(i)
		return
	}
	for c.used+size > c.cap && c.tail != none {
		c.remove(c.tail)
	}
	i := c.free
	if i != none {
		c.free = c.at(i).next
	} else {
		if int(c.slots) == len(c.pages)*pageLen {
			c.pages = append(c.pages, make([]slot[V], pageLen))
		}
		i = c.slots
		c.slots++
	}
	*c.at(i) = slot[V]{key: key, val: val, size: size}
	c.linkFront(i)
	c.index[key] = i
	c.used += size
}

// Delete drops key if present.
func (c *Cache[V]) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.remove(i)
	}
}

// Clear empties the cache, keeping its cap and its pages.
func (c *Cache[V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.pages {
		clear(p) // drop the references the keys and values held
	}
	clear(c.index)
	c.slots, c.used = 0, 0
	c.head, c.tail, c.free = none, none, none
}

// Each calls fn for every entry, most recently used first, without
// refreshing recency. fn runs under the cache's lock and must not call
// back into the cache.
func (c *Cache[V]) Each(fn func(key string, val V)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := c.head; i != none; i = c.at(i).next {
		fn(c.at(i).key, c.at(i).val)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Used returns the size currently cached; it never exceeds the cap.
func (c *Cache[V]) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

// at returns slot i; c.mu must be held.
func (c *Cache[V]) at(i int32) *slot[V] { return &c.pages[i/pageLen][i%pageLen] }

// toFront marks slot i most recently used; c.mu must be held.
func (c *Cache[V]) toFront(i int32) {
	if c.head != i {
		c.unlink(i)
		c.linkFront(i)
	}
}

// linkFront puts the unlinked slot i at the head; c.mu must be held.
func (c *Cache[V]) linkFront(i int32) {
	s := c.at(i)
	s.prev, s.next = none, c.head
	if c.head != none {
		c.at(c.head).prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// unlink takes slot i out of the recency list; c.mu must be held.
func (c *Cache[V]) unlink(i int32) {
	s := c.at(i)
	if s.prev != none {
		c.at(s.prev).next = s.next
	} else {
		c.head = s.next
	}
	if s.next != none {
		c.at(s.next).prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// remove drops slot i, releases its size and frees the slot; c.mu must
// be held.
func (c *Cache[V]) remove(i int32) {
	c.unlink(i)
	s := c.at(i)
	delete(c.index, s.key)
	c.used -= s.size
	*s = slot[V]{next: c.free} // drop the key and value for the collector
	c.free = i
}

// Package lru is the repository's one byte-capped least-recently-used
// cache. The gateway's nginx web cache (§3.4), the fleet-shared object
// cache and block.LRUStore are all instances of Cache; none of them
// keeps a recency list of its own.
//
// The contract, pinned by lru_test.go against a naive slice model:
// Get refreshes recency, Has does not; a Put of a key already present
// refreshes recency without replacing the value; a value larger than
// the whole cap is refused; eviction removes strictly the least
// recently used entries until the newcomer fits, so Used never exceeds
// the cap.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a byte-capped LRU from string keys to V. The caller states
// each value's size at Put, so V can be a byte slice, a block or
// anything else with a notion of size. All methods are safe for
// concurrent use.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int64
	used  int64
	order *list.List // front = most recently used; values are *entry[V]
	items map[string]*list.Element
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// New returns an empty cache bounded to capBytes.
func New[V any](capBytes int64) *Cache[V] {
	return &Cache[V]{cap: capBytes, order: list.New(), items: make(map[string]*list.Element)}
}

// Get returns the value under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Has reports whether key is cached, without refreshing its recency.
func (c *Cache[V]) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put caches val, of the given size in bytes, under key, evicting least
// recently used entries until it fits. A key already present is only
// refreshed; a value larger than the cap is not cached.
func (c *Cache[V]) Put(key string, val V, size int64) {
	if size > c.cap {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	for c.used+size > c.cap && c.order.Len() > 0 {
		c.remove(c.order.Back())
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val, size: size})
	c.used += size
}

// Delete drops key if present.
func (c *Cache[V]) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el)
	}
}

// remove unlinks el and releases its bytes; c.mu must be held.
func (c *Cache[V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*entry[V])
	delete(c.items, e.key)
	c.used -= e.size
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Used returns the bytes currently cached; it never exceeds the cap.
func (c *Cache[V]) Used() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}

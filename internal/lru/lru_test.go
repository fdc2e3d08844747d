package lru

import (
	"fmt"
	"math/rand"
	"testing"
)

// order lists the cached keys, most recently used first.
func order[V any](c *Cache[V]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry[V]).key)
	}
	return keys
}

// TestContract pins, once, every behaviour the three former copies of
// this cache (the gateway's nginx cache, the fleet's shared object
// cache, block.LRUStore) each tested for themselves.
func TestContract(t *testing.T) {
	type op struct {
		do   string // put | get | has | del
		key  string
		size int64
		want bool // get/has: expected presence
	}
	cases := []struct {
		name     string
		cap      int64
		ops      []op
		wantMRU  []string // surviving keys, most recently used first
		wantUsed int64
	}{
		{
			name:    "eviction is oldest first",
			cap:     250,
			ops:     []op{{do: "put", key: "a", size: 98}, {do: "put", key: "b", size: 98}, {do: "put", key: "c", size: 98}},
			wantMRU: []string{"c", "b"}, wantUsed: 196,
		},
		{
			name: "get refreshes recency",
			cap:  1000,
			ops: []op{
				{do: "put", key: "a", size: 400}, {do: "put", key: "b", size: 400},
				{do: "get", key: "a", want: true}, // b becomes the victim
				{do: "put", key: "c", size: 400},
				{do: "get", key: "b", want: false},
			},
			wantMRU: []string{"c", "a"}, wantUsed: 800,
		},
		{
			name: "has does not refresh recency",
			cap:  1000,
			ops: []op{
				{do: "put", key: "a", size: 400}, {do: "put", key: "b", size: 400},
				{do: "has", key: "a", want: true}, // a stays the victim
				{do: "put", key: "c", size: 400},
				{do: "has", key: "a", want: false},
			},
			wantMRU: []string{"c", "b"}, wantUsed: 800,
		},
		{
			name: "duplicate put refreshes without replacing",
			cap:  1000,
			ops: []op{
				{do: "put", key: "a", size: 400}, {do: "put", key: "b", size: 400},
				{do: "put", key: "a", size: 999}, // the first value and its size stay
				{do: "put", key: "c", size: 400},
			},
			wantMRU: []string{"c", "a"}, wantUsed: 800,
		},
		{
			name:    "oversized value is refused and evicts nothing",
			cap:     10,
			ops:     []op{{do: "put", key: "small", size: 10}, {do: "put", key: "big", size: 100}, {do: "get", key: "big", want: false}},
			wantMRU: []string{"small"}, wantUsed: 10,
		},
		{
			name:    "one put may evict several",
			cap:     300,
			ops:     []op{{do: "put", key: "a", size: 100}, {do: "put", key: "b", size: 100}, {do: "put", key: "c", size: 100}, {do: "put", key: "d", size: 250}},
			wantMRU: []string{"d"}, wantUsed: 250,
		},
		{
			name:    "delete releases the bytes",
			cap:     1000,
			ops:     []op{{do: "put", key: "a", size: 3}, {do: "del", key: "a"}, {do: "del", key: "never stored"}, {do: "has", key: "a", want: false}},
			wantMRU: nil, wantUsed: 0,
		},
		{
			name:    "zero-size values are cached",
			cap:     5,
			ops:     []op{{do: "put", key: "empty", size: 0}, {do: "put", key: "full", size: 5}, {do: "get", key: "empty", want: true}},
			wantMRU: []string{"empty", "full"}, wantUsed: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string](tc.cap)
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					c.Put(o.key, fmt.Sprintf("%s@%d", o.key, i), o.size)
				case "get":
					if _, ok := c.Get(o.key); ok != o.want {
						t.Errorf("op %d: Get(%q) present = %v, want %v", i, o.key, ok, o.want)
					}
				case "has":
					if ok := c.Has(o.key); ok != o.want {
						t.Errorf("op %d: Has(%q) = %v, want %v", i, o.key, ok, o.want)
					}
				case "del":
					c.Delete(o.key)
				}
			}
			if got := order(c); fmt.Sprint(got) != fmt.Sprint(tc.wantMRU) {
				t.Errorf("keys, most recent first = %v, want %v", got, tc.wantMRU)
			}
			if c.Len() != len(tc.wantMRU) {
				t.Errorf("Len = %d, want %d", c.Len(), len(tc.wantMRU))
			}
			if c.Used() != tc.wantUsed {
				t.Errorf("Used = %d, want %d", c.Used(), tc.wantUsed)
			}
		})
	}

	// A duplicate Put keeps the first value.
	c := New[string](10)
	c.Put("k", "first", 1)
	c.Put("k", "second", 1)
	if v, _ := c.Get("k"); v != "first" {
		t.Errorf("value after duplicate Put = %q, want the first", v)
	}
}

// model is the reference the random test compares against: a slice of
// entries, most recently used first, with every operation a linear
// scan.
type model struct {
	cap   int64
	items []modelItem
}

type modelItem struct {
	key  string
	size int64
}

func (m *model) find(key string) int {
	for i, it := range m.items {
		if it.key == key {
			return i
		}
	}
	return -1
}

func (m *model) touch(i int) {
	it := m.items[i]
	copy(m.items[1:i+1], m.items[:i])
	m.items[0] = it
}

func (m *model) used() (n int64) {
	for _, it := range m.items {
		n += it.size
	}
	return n
}

func (m *model) get(key string) bool {
	i := m.find(key)
	if i >= 0 {
		m.touch(i)
	}
	return i >= 0
}

func (m *model) put(key string, size int64) {
	if size > m.cap {
		return
	}
	if i := m.find(key); i >= 0 {
		m.touch(i)
		return
	}
	for m.used()+size > m.cap && len(m.items) > 0 {
		m.items = m.items[:len(m.items)-1]
	}
	m.items = append([]modelItem{{key, size}}, m.items...)
}

func (m *model) del(key string) {
	if i := m.find(key); i >= 0 {
		m.items = append(m.items[:i], m.items[i+1:]...)
	}
}

// TestRandomOpsMatchModel drives seeded random operations through the
// cache and the slice model side by side: after every step both hold
// the same keys in the same recency order (so every eviction picked the
// same victims in the same order), and Used never exceeds the cap.
func TestRandomOpsMatchModel(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const capBytes = 1000
		c := New[int](capBytes)
		m := &model{cap: capBytes}
		for step := 0; step < 5000; step++ {
			key := fmt.Sprintf("k%d", rng.Intn(40))
			switch r := rng.Intn(10); {
			case r < 5:
				size := int64(rng.Intn(400))
				if rng.Intn(50) == 0 {
					size = capBytes + 1 + int64(rng.Intn(100))
				}
				c.Put(key, step, size)
				m.put(key, size)
			case r < 8:
				_, got := c.Get(key)
				if want := m.get(key); got != want {
					t.Fatalf("seed %d step %d: Get(%s) present = %v, model says %v", seed, step, key, got, want)
				}
			case r < 9:
				if got, want := c.Has(key), m.find(key) >= 0; got != want {
					t.Fatalf("seed %d step %d: Has(%s) = %v, model says %v", seed, step, key, got, want)
				}
			default:
				c.Delete(key)
				m.del(key)
			}
			if c.Used() > capBytes || c.Used() != m.used() {
				t.Fatalf("seed %d step %d: Used = %d, model %d, cap %d", seed, step, c.Used(), m.used(), capBytes)
			}
			got := order(c)
			if len(got) != len(m.items) || c.Len() != len(m.items) {
				t.Fatalf("seed %d step %d: %d keys (Len %d), model has %d", seed, step, len(got), c.Len(), len(m.items))
			}
			for i, k := range got {
				if k != m.items[i].key {
					t.Fatalf("seed %d step %d: recency order %v diverges from the model at %d (%s)", seed, step, got, i, m.items[i].key)
				}
			}
		}
	}
}

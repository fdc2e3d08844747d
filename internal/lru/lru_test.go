package lru

import (
	"fmt"
	"math/rand"
	"testing"
)

// order lists the cached keys, most recently used first.
func order[V any](c *Cache[V]) []string {
	var keys []string
	c.Each(func(key string, _ V) { keys = append(keys, key) })
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
// same victims in the same order), and Used never exceeds the cap. The
// delete-heavy mixes free slots faster than puts fill them, so most
// puts land in a reused slot: the slot slice must never grow past the
// most entries the cache has held at once, and a Get must return the
// value its key was last stored with, not a former tenant's.
func TestRandomOpsMatchModel(t *testing.T) {
	mixes := []struct {
		name          string
		put, get, has int // out of 10; the rest deletes
	}{
		{"put-heavy", 5, 3, 1},
		{"delete-heavy", 4, 1, 1},
		{"churn", 3, 1, 0},
	}
	for _, mix := range mixes {
		for seed := int64(1); seed <= 5; seed++ {
			randomOpsMatchModel(t, mix.name, seed, mix.put, mix.put+mix.get, mix.put+mix.get+mix.has)
		}
	}
	// Clear empties the cache and its slots; it works afterwards, and
	// refilling it reuses the pages it kept.
	c := New[int](10)
	c.Put("a", 1, 4)
	c.Put("b", 2, 4)
	c.Clear()
	if c.Len() != 0 || c.Used() != 0 || c.slots != 0 || len(order(c)) != 0 {
		t.Fatalf("after Clear: Len %d, Used %d, %d slots, order %v", c.Len(), c.Used(), c.slots, order(c))
	}
	c.Put("c", 3, 4)
	if v, ok := c.Get("c"); !ok || v != 3 || c.Has("a") {
		t.Fatalf("after Clear and Put: Get(c) = %d, %v; Has(a) = %v", v, ok, c.Has("a"))
	}
	big := New[int](2 * pageLen)
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*pageLen; i++ {
			big.Put(fmt.Sprint(i), i, 1)
		}
		big.Clear()
	}
	if len(big.pages) != 2 {
		t.Fatalf("three fills of %d entries, each followed by Clear, left %d pages, want 2", 2*pageLen, len(big.pages))
	}
}

func randomOpsMatchModel(t *testing.T, mix string, seed int64, putBelow, getBelow, hasBelow int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	const capBytes = 1000
	c := New[int](capBytes)
	m := &model{cap: capBytes}
	stored := map[string]int{} // the value each key was last stored with
	highWater := 0
	for step := 0; step < 5000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(40))
		switch r := rng.Intn(10); {
		case r < putBelow:
			size := int64(rng.Intn(400))
			if rng.Intn(50) == 0 {
				size = capBytes + 1 + int64(rng.Intn(100))
			}
			if !c.Has(key) && size <= capBytes {
				stored[key] = step
			}
			c.Put(key, step, size)
			m.put(key, size)
		case r < getBelow:
			v, got := c.Get(key)
			if want := m.get(key); got != want {
				t.Fatalf("%s seed %d step %d: Get(%s) present = %v, model says %v", mix, seed, step, key, got, want)
			}
			if got && v != stored[key] {
				t.Fatalf("%s seed %d step %d: Get(%s) = %d, it was stored with %d", mix, seed, step, key, v, stored[key])
			}
		case r < hasBelow:
			if got, want := c.Has(key), m.find(key) >= 0; got != want {
				t.Fatalf("%s seed %d step %d: Has(%s) = %v, model says %v", mix, seed, step, key, got, want)
			}
		default:
			c.Delete(key)
			m.del(key)
		}
		if c.Used() > capBytes || c.Used() != m.used() {
			t.Fatalf("%s seed %d step %d: Used = %d, model %d, cap %d", mix, seed, step, c.Used(), m.used(), capBytes)
		}
		got := order(c)
		if len(got) != len(m.items) || c.Len() != len(m.items) {
			t.Fatalf("%s seed %d step %d: %d keys (Len %d), model has %d", mix, seed, step, len(got), c.Len(), len(m.items))
		}
		for i, k := range got {
			if k != m.items[i].key {
				t.Fatalf("%s seed %d step %d: recency order %v diverges from the model at %d (%s)", mix, seed, step, got, i, m.items[i].key)
			}
		}
		highWater = max(highWater, len(got))
		if int(c.slots) > highWater || len(c.pages) > (highWater+pageLen-1)/pageLen {
			t.Fatalf("%s seed %d step %d: %d slots in %d pages, but at most %d entries were ever held at once", mix, seed, step, c.slots, len(c.pages), highWater)
		}
	}
}

// TestRepeatedPutAndGetAllocateNothing: once an entry sits in its slot,
// refreshing it — by Get or by a Put of the same key — allocates
// nothing, and neither does a Put into a slot a Delete freed.
func TestRepeatedPutAndGetAllocateNothing(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if allocs := testing.AllocsPerRun(1000, func() { c.Get("a"); c.Put("b", 3, 1) }); allocs != 0 {
		t.Errorf("Get and refreshing Put allocate %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { c.Delete("a"); c.Put("a", 1, 1) }); allocs != 0 {
		t.Errorf("Delete and Put into the freed slot allocate %.0f times", allocs)
	}
}

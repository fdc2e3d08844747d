package slab

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestSlabModel drives the slab with seeded random operations against
// a map of slices: same chains, same order, same length, for keys on
// both sides of the fixed key's capacity.
func TestSlabModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New[int64]()
	ref := map[string][]int64{}
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		if i%4 == 0 {
			keys[i] += strings.Repeat("x", keyCap) // takes the map[string] path
		}
	}
	chain := func(key string) []int64 {
		var out []int64
		for i := s.First(key); i != None; i = s.Next(i) {
			out = append(out, *s.At(i))
		}
		return out
	}
	slotOf := func(key string, v int64) uint32 {
		for i := s.First(key); i != None; i = s.Next(i) {
			if *s.At(i) == v {
				return i
			}
		}
		t.Fatalf("value %d not in chain %q", v, key)
		return None
	}
	for op, next := 0, int64(0); op < 20000; op++ {
		key := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(10); {
		case r < 5:
			next++
			*s.At(s.Append(key)) = next
			ref[key] = append(ref[key], next)
		case r < 7 && len(ref[key]) > 0:
			at := rng.Intn(len(ref[key]))
			s.Remove(slotOf(key, ref[key][at]))
			ref[key] = append(ref[key][:at:at], ref[key][at+1:]...)
		case r < 8 && len(ref[key]) > 0:
			at := rng.Intn(len(ref[key]))
			v := ref[key][at]
			s.MoveToTail(slotOf(key, v))
			ref[key] = append(append(ref[key][:at:at], ref[key][at+1:]...), v)
		case r < 9 && op%50 == 0:
			mod := int64(2 + rng.Intn(3))
			s.Filter(func(v *int64) bool { return *v%mod != 0 })
			for k, vs := range ref {
				kept := vs[:0]
				for _, v := range vs {
					if v%mod != 0 {
						kept = append(kept, v)
					}
				}
				ref[k] = kept
			}
		}
		if got, want := chain(key), ref[key]; !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("op %d: chain %q = %v, want %v", op, key, got, want)
		}
	}
	total, seen := 0, 0
	for _, vs := range ref {
		total += len(vs)
	}
	s.Each(func(key string, v *int64) {
		seen++
		if len(ref[key]) == 0 {
			t.Errorf("Each visited %q, which the model has no slot for", key)
		}
	})
	if s.Len() != total || seen != total {
		t.Errorf("Len = %d, Each visited %d, want %d", s.Len(), seen, total)
	}
	if len(s.slots) > 2*total+64 {
		t.Errorf("%d slots allocated for %d in use: the free list is not reused", len(s.slots), total)
	}
}

func TestNewRejectsPointerfulSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted a slot type holding a string")
		}
	}()
	New[struct {
		n    int
		name string
	}]()
}

func TestInternerReleasesAndReuses(t *testing.T) {
	var n Interner[string]
	a, b := n.Acquire("a"), n.Acquire("b")
	if again := n.Acquire("a"); again != a {
		t.Errorf("second Acquire(a) = %d, want %d", again, a)
	}
	n.Release(a)
	if _, ok := n.Lookup("a"); !ok {
		t.Error("a released once of two references is gone")
	}
	n.Release(a)
	if _, ok := n.Lookup("a"); ok || n.Len() != 1 {
		t.Errorf("a still interned after its last release (Len %d)", n.Len())
	}
	if c := n.Acquire("c"); c != a || n.Value(c) != "c" || n.Value(b) != "b" {
		t.Errorf("Acquire(c) = %d (%q), want the freed index %d", c, n.Value(c), a)
	}
}

// TestStateLayoutsArePointerFree pins the property the package exists
// for: the index key holds nothing the collector would trace.
func TestStateLayoutsArePointerFree(t *testing.T) {
	for _, v := range []any{Key{}, chain{}, slot[int64]{}} {
		if err := PointerFree(reflect.TypeOf(v)); err != nil {
			t.Error(err)
		}
	}
}

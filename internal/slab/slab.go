// Package slab holds the node state whose size grows with traffic —
// provider records at a DHT server, republish acks at a publisher — in
// memory the garbage collector does not have to trace. A Slab is a set
// of singly linked chains, one per key, threaded through one slice of
// pointer-free slots with a free list; an Interner turns the few
// distinct pointerful values those slots refer to (peer IDs) into small
// integers. What the collector sees of a million records is three
// slices and a map whose buckets hold no pointers.
package slab

import (
	"fmt"
	"reflect"
)

// None is the nil slot index: the end of a chain, a missing key.
const None = ^uint32(0)

// keyCap is the longest key the fixed index holds: a CIDv1 over a
// 32-byte digest is 36 bytes.
const keyCap = 39

// Key is the fixed-size index key: a length byte, then the key's bytes,
// zero padded.
type Key [1 + keyCap]byte

// longKey in a chain's length byte says the key did not fit and lives in
// Slab.longKeys.
const longKey = 0xff

type chain struct {
	key        Key
	head, tail uint32 // a free entry links the free list through head
	n          uint32
}

type slot[V any] struct {
	v     V
	next  uint32 // next in the chain, or next free slot
	chain uint32 // None while the slot is free
}

// Slab maps string keys to ordered chains of V. V must be pointer-free
// (New panics otherwise). A Slab is not safe for concurrent use.
type Slab[V any] struct {
	fixed    map[Key]uint32    // key -> index into chains
	long     map[string]uint32 // the same for keys longer than keyCap
	longKeys map[uint32]string // chain index -> its long key, to unindex it
	chains   []chain
	slots    []slot[V]

	freeChain, freeSlot uint32
	n                   int
}

// New returns an empty slab. It panics if V holds anything the
// collector would have to trace: that is the one property the type
// exists for, and only a code change can break it.
func New[V any]() *Slab[V] {
	if err := PointerFree(reflect.TypeOf((*V)(nil)).Elem()); err != nil {
		panic(fmt.Sprintf("slab: slot type: %v", err))
	}
	return &Slab[V]{
		fixed:     make(map[Key]uint32),
		freeChain: None,
		freeSlot:  None,
	}
}

// PointerFree reports, as an error naming the offending field, whether
// a value of type t contains a pointer, string, slice, map, channel,
// function or interface.
func PointerFree(t reflect.Type) error {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return nil
	case reflect.Array:
		return PointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if err := PointerFree(t.Field(i).Type); err != nil {
				return fmt.Errorf("%s.%s: %w", t.Name(), t.Field(i).Name, err)
			}
		}
		return nil
	}
	return fmt.Errorf("%s is a %s", t, t.Kind())
}

// Len returns the number of slots in use.
func (s *Slab[V]) Len() int { return s.n }

func (s *Slab[V]) lookup(key string) (uint32, bool) {
	if len(key) > keyCap {
		ci, ok := s.long[key]
		return ci, ok
	}
	var k Key
	k[0] = byte(len(key))
	copy(k[1:], key)
	ci, ok := s.fixed[k]
	return ci, ok
}

// First returns the first slot of key's chain, or None.
func (s *Slab[V]) First(key string) uint32 {
	if ci, ok := s.lookup(key); ok {
		return s.chains[ci].head
	}
	return None
}

// Next returns the slot after i in its chain, or None.
func (s *Slab[V]) Next(i uint32) uint32 { return s.slots[i].next }

// At returns slot i's value. The pointer is good until the next Append.
func (s *Slab[V]) At(i uint32) *V { return &s.slots[i].v }

// Append adds a zero slot at the tail of key's chain, creating the
// chain if the key is new, and returns its index.
func (s *Slab[V]) Append(key string) uint32 {
	ci, ok := s.lookup(key)
	if !ok {
		ci = s.newChain(key)
	}
	i := s.freeSlot
	if i != None {
		s.freeSlot = s.slots[i].next
	} else {
		i = uint32(len(s.slots))
		s.slots = append(s.slots, slot[V]{})
	}
	s.slots[i] = slot[V]{next: None, chain: ci}
	s.n++
	s.linkTail(ci, i)
	return i
}

func (s *Slab[V]) newChain(key string) uint32 {
	ci := s.freeChain
	if ci != None {
		s.freeChain = s.chains[ci].head
	} else {
		ci = uint32(len(s.chains))
		s.chains = append(s.chains, chain{})
	}
	c := chain{head: None, tail: None}
	if len(key) > keyCap {
		c.key[0] = longKey
		if s.long == nil {
			s.long = make(map[string]uint32)
			s.longKeys = make(map[uint32]string)
		}
		s.long[key] = ci
		s.longKeys[ci] = key
	} else {
		c.key[0] = byte(len(key))
		copy(c.key[1:], key)
		s.fixed[c.key] = ci
	}
	s.chains[ci] = c
	return ci
}

func (s *Slab[V]) linkTail(ci, i uint32) {
	c := &s.chains[ci]
	if c.tail == None {
		c.head = i
	} else {
		s.slots[c.tail].next = i
	}
	c.tail = i
	c.n++
}

// unlink takes slot i, whose predecessor in the chain is prev (None for
// the head), out of its chain without freeing it.
func (s *Slab[V]) unlink(prev, i uint32) {
	c := &s.chains[s.slots[i].chain]
	next := s.slots[i].next
	if prev == None {
		c.head = next
	} else {
		s.slots[prev].next = next
	}
	if c.tail == i {
		c.tail = prev
	}
	c.n--
	s.slots[i].next = None
}

// prev finds slot i's predecessor by walking its chain: chains are as
// long as one key has providers or targets, a few tens at most.
func (s *Slab[V]) prev(i uint32) uint32 {
	p := None
	for j := s.chains[s.slots[i].chain].head; j != i; j = s.slots[j].next {
		p = j
	}
	return p
}

// free returns an unlinked slot to the free list and drops its chain
// once that is empty.
func (s *Slab[V]) free(i uint32) {
	ci := s.slots[i].chain
	s.slots[i] = slot[V]{next: s.freeSlot, chain: None}
	s.freeSlot = i
	s.n--
	if c := &s.chains[ci]; c.n == 0 {
		if c.key[0] == longKey {
			delete(s.long, s.longKeys[ci])
			delete(s.longKeys, ci)
		} else {
			delete(s.fixed, c.key)
		}
		*c = chain{head: s.freeChain}
		s.freeChain = ci
	}
}

// Remove deletes slot i.
func (s *Slab[V]) Remove(i uint32) {
	s.unlink(s.prev(i), i)
	s.free(i)
}

// MoveToTail makes slot i the last of its chain.
func (s *Slab[V]) MoveToTail(i uint32) {
	ci := s.slots[i].chain
	if s.chains[ci].tail == i {
		return
	}
	s.unlink(s.prev(i), i)
	s.linkTail(ci, i)
}

// Filter deletes every slot keep returns false for, in one pass over
// the slab. keep must not call back into the slab.
func (s *Slab[V]) Filter(keep func(v *V) bool) {
	for ci := range s.chains {
		if s.chains[ci].n == 0 {
			continue
		}
		prev := None
		for i := s.chains[ci].head; i != None; {
			next := s.slots[i].next
			if keep(&s.slots[i].v) {
				prev = i
			} else {
				s.unlink(prev, i)
				s.free(i)
			}
			i = next
		}
	}
}

// Each calls f for every slot, chain by chain and in chain order.
func (s *Slab[V]) Each(f func(key string, v *V)) {
	for ci := range s.chains {
		c := &s.chains[ci]
		if c.n == 0 {
			continue
		}
		key := s.longKeys[uint32(ci)]
		if c.key[0] != longKey {
			key = string(c.key[1 : 1+c.key[0]])
		}
		for i := c.head; i != None; i = s.slots[i].next {
			f(key, &s.slots[i].v)
		}
	}
}

// Interner hands out one small integer per distinct value and takes it
// back when the last reference is released, so slots can name a peer
// with four bytes and the table stays as large as the set of peers the
// slots still name. The zero Interner is ready to use; it is not safe
// for concurrent use.
type Interner[K comparable] struct {
	idx  map[K]uint32
	vals []K
	refs []uint32 // a free entry links the free list through refs
	free uint32   // head of the free list + 1, so the zero value means none
}

// Lookup returns k's index if some slot holds a reference to it.
func (n *Interner[K]) Lookup(k K) (uint32, bool) {
	i, ok := n.idx[k]
	return i, ok
}

// Acquire returns k's index, adding a reference.
func (n *Interner[K]) Acquire(k K) uint32 {
	if i, ok := n.idx[k]; ok {
		n.refs[i]++
		return i
	}
	if n.idx == nil {
		n.idx = make(map[K]uint32)
	}
	var i uint32
	if n.free != 0 {
		i = n.free - 1
		n.free = n.refs[i]
		n.vals[i], n.refs[i] = k, 1
	} else {
		i = uint32(len(n.vals))
		n.vals = append(n.vals, k)
		n.refs = append(n.refs, 1)
	}
	n.idx[k] = i
	return i
}

// Release drops one reference to index i.
func (n *Interner[K]) Release(i uint32) {
	if n.refs[i]--; n.refs[i] > 0 {
		return
	}
	var zero K
	delete(n.idx, n.vals[i])
	n.vals[i] = zero
	n.refs[i] = n.free
	n.free = i + 1
}

// Value returns the value index i stands for.
func (n *Interner[K]) Value(i uint32) K { return n.vals[i] }

// Len returns the number of distinct values referenced.
func (n *Interner[K]) Len() int { return len(n.idx) }

// Package record implements the two record types the DHT stores
// (§3.1): provider records, which map a CID to the PeerID of a peer
// holding the content, and signed peer records, which map a PeerID to
// its Multiaddresses. Both carry the timers of §3.1: records are
// republished every 12 h and expire after 24 h so the system never
// serves stale mappings.
package record

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/slab"
	"repro/internal/varint"
)

// Default intervals from §3.1.
const (
	DefaultRepublishInterval = 12 * time.Hour
	DefaultExpireInterval    = 24 * time.Hour
)

// ProviderRecord states that Provider held the content identified by
// Cid at time Published.
type ProviderRecord struct {
	Cid       cid.Cid
	Provider  peer.ID
	Published time.Time
}

// Expired reports whether the record has passed the expiry interval at
// time now.
func (r ProviderRecord) Expired(now time.Time, ttl time.Duration) bool {
	if ttl <= 0 {
		ttl = DefaultExpireInterval
	}
	return now.Sub(r.Published) > ttl
}

// PeerRecord maps a PeerID to its Multiaddresses, signed by the peer's
// key so that requestors can authenticate the mapping.
type PeerRecord struct {
	ID        peer.ID
	Addrs     []multiaddr.Multiaddr
	Seq       uint64 // monotonically increasing per publisher
	PublicKey ed25519.PublicKey
	Signature []byte
	Published time.Time
}

// Errors returned by this package.
var (
	ErrBadRecord = errors.New("record: malformed")
	ErrExpired   = errors.New("record: expired")
)

// signablePeerRecord returns the canonical byte string covered by the
// peer-record signature.
func signablePeerRecord(id peer.ID, addrs []multiaddr.Multiaddr, seq uint64) []byte {
	out := []byte("ipfs-peer-record:")
	out = append(out, id...)
	out = varint.Append(out, seq)
	for _, a := range addrs {
		ab := a.Bytes()
		out = varint.Append(out, uint64(len(ab)))
		out = append(out, ab...)
	}
	return out
}

// NewPeerRecord builds and signs a peer record for the identity.
func NewPeerRecord(ident peer.Identity, addrs []multiaddr.Multiaddr, seq uint64, now time.Time) PeerRecord {
	return PeerRecord{
		ID:        ident.ID,
		Addrs:     append([]multiaddr.Multiaddr(nil), addrs...),
		Seq:       seq,
		PublicKey: ident.Public,
		Signature: ident.Sign(signablePeerRecord(ident.ID, addrs, seq)),
		Published: now,
	}
}

// Verify checks the record's signature and that the embedded key
// matches the claimed PeerID.
func (r PeerRecord) Verify() error {
	return peer.Verify(r.ID, r.PublicKey, signablePeerRecord(r.ID, r.Addrs, r.Seq), r.Signature)
}

// Expired reports whether the record is older than ttl at now.
func (r PeerRecord) Expired(now time.Time, ttl time.Duration) bool {
	if ttl <= 0 {
		ttl = DefaultExpireInterval
	}
	return now.Sub(r.Published) > ttl
}

// Bounds on one node's provider store. Any peer can send ADD_PROVIDER,
// so the store is what a hostile publisher fills: past these it evicts
// instead of growing.
const (
	// MaxProvidersPerKey caps the records one CID may hold; the record
	// published longest ago makes room for a new provider.
	MaxProvidersPerKey = 128
	// MaxProviderRecords caps the whole store; the record published
	// longest ago anywhere makes room. A record is about 180 bytes
	// with its share of the index, so a full store is about 45 MB.
	MaxProviderRecords = 1 << 18
)

// providerSlot is one stored record. The CID is the key of the chain
// the slot hangs on.
type providerSlot struct {
	published int64  // unix ns
	provider  uint32 // index into ProviderStore.provs
	age       uint32 // position in ProviderStore.byAge
}

// ProviderStore holds the provider records a DHT server is responsible
// for. It enforces the expiry interval on read and the two bounds above
// on write. Records live in a slab of pointer-free slots, one chain per
// CID, with each provider's ID interned once.
type ProviderStore struct {
	mu    sync.RWMutex
	ttl   time.Duration
	now   func() time.Time
	recs  *slab.Slab[providerSlot]
	provs slab.Interner[peer.ID]
	byAge []uint32 // min-heap of slot indices on published: eviction and GC pop its root
}

// NewProviderStore creates a store with the given TTL (<=0 selects the
// 24 h default). now overrides the clock for tests and simulation; nil
// uses time.Now.
func NewProviderStore(ttl time.Duration, now func() time.Time) *ProviderStore {
	if ttl <= 0 {
		ttl = DefaultExpireInterval
	}
	if now == nil {
		now = time.Now
	}
	return &ProviderStore{ttl: ttl, now: now, recs: slab.New[providerSlot]()}
}

// Add stores (or refreshes) a provider record. A refresh keeps the
// record's place in Get's order.
func (s *ProviderStore) Add(r ProviderRecord) {
	key, published := r.Cid.Key(), r.Published.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	p, known := s.provs.Lookup(r.Provider)
	held, oldest := 0, slab.None
	for i := s.recs.First(key); i != slab.None; i = s.recs.Next(i) {
		v := s.recs.At(i)
		if known && v.provider == p {
			v.published = published
			s.ageFix(v.age)
			return
		}
		if oldest == slab.None || v.published < s.recs.At(oldest).published {
			oldest = i
		}
		held++
	}
	if held >= MaxProvidersPerKey {
		s.remove(oldest)
	}
	if s.recs.Len() >= MaxProviderRecords {
		s.remove(s.byAge[0])
	}
	i := s.recs.Append(key)
	*s.recs.At(i) = providerSlot{published: published, provider: s.provs.Acquire(r.Provider), age: uint32(len(s.byAge))}
	s.byAge = append(s.byAge, i)
	s.ageFix(uint32(len(s.byAge) - 1))
}

// remove drops slot i from the slab, the age heap and its provider's
// reference count.
func (s *ProviderStore) remove(i uint32) {
	v := *s.recs.At(i)
	s.provs.Release(v.provider)
	s.recs.Remove(i)
	last := uint32(len(s.byAge) - 1)
	if v.age != last {
		s.byAge[v.age] = s.byAge[last]
		s.recs.At(s.byAge[v.age]).age = v.age
	}
	s.byAge = s.byAge[:last]
	if v.age != last {
		s.ageFix(v.age)
	}
}

// ageFix restores the heap order around position p after the slot
// there changed its published instant.
func (s *ProviderStore) ageFix(p uint32) {
	h := s.byAge
	at := func(p uint32) *providerSlot { return s.recs.At(h[p]) }
	swap := func(a, b uint32) {
		h[a], h[b] = h[b], h[a]
		at(a).age, at(b).age = a, b
	}
	for p > 0 && at(p).published < at((p-1)/2).published {
		swap(p, (p-1)/2)
		p = (p - 1) / 2
	}
	for n := uint32(len(h)); ; {
		least := p
		for c := 2*p + 1; c <= 2*p+2 && c < n; c++ {
			if at(c).published < at(least).published {
				least = c
			}
		}
		if least == p {
			return
		}
		swap(p, least)
		p = least
	}
}

// expired reports whether a record published at the given unix-ns
// instant has outlived the TTL at now.
func (s *ProviderStore) expired(published int64, now time.Time) bool {
	return published < now.UnixNano()-int64(s.ttl)
}

// Get returns the unexpired provider records for c, in the order their
// providers were first added.
func (s *ProviderStore) Get(c cid.Cid) []ProviderRecord {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ProviderRecord
	for i := s.recs.First(c.Key()); i != slab.None; i = s.recs.Next(i) {
		if v := s.recs.At(i); !s.expired(v.published, now) {
			out = append(out, ProviderRecord{Cid: c, Provider: s.provs.Value(v.provider), Published: time.Unix(0, v.published)})
		}
	}
	return out
}

// Records returns a snapshot of every unexpired provider record — the
// enumeration an indexer's anti-entropy gossip round pushes to its
// replica group.
func (s *ProviderStore) Records() []ProviderRecord {
	now := s.now()
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ProviderRecord
	var c cid.Cid
	s.recs.Each(func(key string, v *providerSlot) {
		if s.expired(v.published, now) {
			return
		}
		if c.Key() != key {
			c, _ = cid.FromBytes([]byte(key)) // the key is a stored Cid's own bytes
		}
		out = append(out, ProviderRecord{Cid: c, Provider: s.provs.Value(v.provider), Published: time.Unix(0, v.published)})
	})
	return out
}

// GC removes expired records and returns how many were dropped. It
// costs O(log n) per dropped record, whatever the store holds.
func (s *ProviderStore) GC() int {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	dropped := 0
	for len(s.byAge) > 0 && s.expired(s.recs.At(s.byAge[0]).published, now) {
		s.remove(s.byAge[0])
		dropped++
	}
	return dropped
}

// Len returns the number of live (possibly expired, not yet GC'd)
// records.
func (s *ProviderStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.recs.Len()
}

// PeerStore holds signed peer records keyed by PeerID, retaining the
// highest sequence number seen for each peer.
type PeerStore struct {
	mu      sync.RWMutex
	ttl     time.Duration
	records map[peer.ID]PeerRecord
	now     func() time.Time
}

// NewPeerStore creates a peer-record store with the given TTL.
func NewPeerStore(ttl time.Duration, now func() time.Time) *PeerStore {
	if ttl <= 0 {
		ttl = DefaultExpireInterval
	}
	if now == nil {
		now = time.Now
	}
	return &PeerStore{ttl: ttl, records: make(map[peer.ID]PeerRecord), now: now}
}

// Put stores a verified record, rejecting invalid signatures and stale
// sequence numbers.
func (s *PeerStore) Put(r PeerRecord) error {
	if err := r.Verify(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.records[r.ID]; ok && cur.Seq >= r.Seq {
		return nil // keep the newer (or equal) record we already have
	}
	s.records[r.ID] = r
	return nil
}

// Get returns the record for id if present and unexpired.
func (s *PeerStore) Get(id peer.ID) (PeerRecord, error) {
	s.mu.RLock()
	r, ok := s.records[id]
	s.mu.RUnlock()
	if !ok {
		return PeerRecord{}, fmt.Errorf("%w: no record for %s", ErrBadRecord, id.Short())
	}
	if r.Expired(s.now(), s.ttl) {
		return PeerRecord{}, ErrExpired
	}
	return r, nil
}

// Len returns the number of stored records.
func (s *PeerStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

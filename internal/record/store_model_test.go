package record

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/multicodec"
	"repro/internal/multihash"
	"repro/internal/peer"
	"repro/internal/slab"
)

// refProviderStore is the map-of-maps store ProviderStore replaced,
// kept as the reference the model test compares against.
type refProviderStore struct {
	ttl     time.Duration
	records map[string]map[peer.ID]ProviderRecord
	now     func() time.Time
}

func (s *refProviderStore) Add(r ProviderRecord) {
	m, ok := s.records[r.Cid.Key()]
	if !ok {
		m = make(map[peer.ID]ProviderRecord)
		s.records[r.Cid.Key()] = m
	}
	m[r.Provider] = r
}

func (s *refProviderStore) Get(c cid.Cid) []ProviderRecord {
	var out []ProviderRecord
	for _, r := range s.records[c.Key()] {
		if !r.Expired(s.now(), s.ttl) {
			out = append(out, r)
		}
	}
	return out
}

func (s *refProviderStore) Records() []ProviderRecord {
	var out []ProviderRecord
	for _, m := range s.records {
		for _, r := range m {
			if !r.Expired(s.now(), s.ttl) {
				out = append(out, r)
			}
		}
	}
	return out
}

func (s *refProviderStore) GC() int {
	dropped := 0
	for key, m := range s.records {
		for p, r := range m {
			if r.Expired(s.now(), s.ttl) {
				delete(m, p)
				dropped++
			}
		}
		if len(m) == 0 {
			delete(s.records, key)
		}
	}
	return dropped
}

func (s *refProviderStore) Len() int {
	n := 0
	for _, m := range s.records {
		n += len(m)
	}
	return n
}

// canon renders a record set order-free: the reference is a map and
// has no order to compare.
func canon(recs []ProviderRecord) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = fmt.Sprintf("%x %x %d", r.Cid.Key(), string(r.Provider), r.Published.UnixNano())
	}
	sort.Strings(out)
	return out
}

// TestProviderStoreModel runs 10 000 seeded random operations — Add
// (new, refresh, and gossip-style back-dated), Get, Records, GC, Len,
// under a clock that moves — against the reference, with a quarter of
// the CIDs too long for the fixed key. Get's order is checked against
// the order providers were first added.
func TestProviderStoreModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	now := epoch
	clock := func() time.Time { return now }
	const ttl = 6 * time.Hour
	s := NewProviderStore(ttl, clock)
	ref := &refProviderStore{ttl: ttl, records: map[string]map[peer.ID]ProviderRecord{}, now: clock}

	cids := make([]cid.Cid, 60)
	for i := range cids {
		data := []byte(fmt.Sprintf("model-%d", i))
		cids[i] = cid.Sum(multicodec.Raw, data)
		if i%4 == 0 {
			mh, err := multihash.Sum(multicodec.SHA2_512, data)
			if err != nil {
				t.Fatal(err)
			}
			if cids[i], err = cid.New(cid.V1, multicodec.Raw, mh); err != nil {
				t.Fatal(err)
			}
		}
	}
	provs := make([]peer.ID, 12)
	for i := range provs {
		provs[i] = testIdentity(int64(100 + i)).ID
	}
	firstAdded := map[string][]peer.ID{} // per CID key, providers in first-Add order

	for op := 0; op < 10000; op++ {
		c := cids[rng.Intn(len(cids))]
		switch r := rng.Intn(20); {
		case r < 10:
			rec := ProviderRecord{Cid: c, Provider: provs[rng.Intn(len(provs))], Published: now}
			if rng.Intn(4) == 0 { // a gossiped copy keeps its original, older instant
				rec.Published = now.Add(-time.Duration(rng.Int63n(int64(ttl + time.Hour))))
			}
			if _, held := ref.records[c.Key()][rec.Provider]; !held {
				firstAdded[c.Key()] = append(firstAdded[c.Key()], rec.Provider)
			}
			s.Add(rec)
			ref.Add(rec)
		case r < 15:
			got, want := s.Get(c), ref.Get(c)
			if !reflect.DeepEqual(canon(got), canon(want)) {
				t.Fatalf("op %d: Get = %v, reference %v", op, canon(got), canon(want))
			}
			at := 0
			for _, rec := range got {
				for at < len(firstAdded[c.Key()]) && firstAdded[c.Key()][at] != rec.Provider {
					at++
				}
			}
			if at == len(firstAdded[c.Key()]) && len(got) > 0 {
				t.Fatalf("op %d: Get is not in insertion order", op)
			}
		case r < 16:
			if got, want := canon(s.Records()), canon(ref.Records()); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: Records = %d records, reference %d", op, len(got), len(want))
			}
		case r < 17:
			if got, want := s.GC(), ref.GC(); got != want {
				t.Fatalf("op %d: GC dropped %d, reference %d", op, got, want)
			}
			for key := range firstAdded {
				held := firstAdded[key][:0]
				for _, p := range firstAdded[key] {
					if _, ok := ref.records[key][p]; ok {
						held = append(held, p)
					}
				}
				firstAdded[key] = held
			}
		default:
			now = now.Add(time.Duration(rng.Int63n(int64(20 * time.Minute))))
		}
		if got, want := s.Len(), ref.Len(); got != want {
			t.Fatalf("op %d: Len = %d, reference %d", op, got, want)
		}
	}
	if s.provs.Len() > len(provs) {
		t.Errorf("%d providers interned, only %d exist", s.provs.Len(), len(provs))
	}
}

// sequentialCid returns the i-th of a family of distinct raw CIDs
// without hashing anything.
func sequentialCid(i int) cid.Cid {
	digest := make([]byte, 32)
	for b := 0; b < 8; b++ {
		digest[b] = byte(i >> (8 * b))
	}
	c, err := cid.New(cid.V1, multicodec.Raw, multihash.FromDigest(multicodec.SHA2_256, digest))
	if err != nil {
		panic(err)
	}
	return c
}

// TestProviderStoreBounds: the per-key cap and the total budget evict
// the record published longest ago, and nothing else.
func TestProviderStoreBounds(t *testing.T) {
	now := epoch
	s := NewProviderStore(0, func() time.Time { return now })
	c := sequentialCid(0)
	first := peer.ID("provider-0")
	for i := 0; i <= MaxProvidersPerKey; i++ {
		now = now.Add(time.Second)
		s.Add(ProviderRecord{Cid: c, Provider: peer.ID(fmt.Sprintf("provider-%d", i)), Published: now})
	}
	got := s.Get(c)
	if len(got) != MaxProvidersPerKey {
		t.Fatalf("%d providers held for one key, want the cap %d", len(got), MaxProvidersPerKey)
	}
	for _, r := range got {
		if r.Provider == first {
			t.Error("the per-key cap evicted a newer record than the oldest")
		}
	}
	if got[len(got)-1].Provider != peer.ID(fmt.Sprintf("provider-%d", MaxProvidersPerKey)) {
		t.Error("the newest provider is not last in Get's order")
	}

	for i := 1; s.Len() < MaxProviderRecords; i++ {
		now = now.Add(time.Millisecond)
		s.Add(ProviderRecord{Cid: sequentialCid(i), Provider: first, Published: now})
	}
	oldest := s.Get(c)[0]
	now = now.Add(time.Second)
	honest := ProviderRecord{Cid: sequentialCid(-1), Provider: peer.ID("honest"), Published: now}
	s.Add(honest)
	if s.Len() != MaxProviderRecords {
		t.Errorf("Len = %d past the budget %d", s.Len(), MaxProviderRecords)
	}
	if got := s.Get(honest.Cid); len(got) != 1 || got[0].Provider != honest.Provider {
		t.Errorf("the record added at the budget is not served: %v", got)
	}
	for _, r := range s.Get(c) {
		if r.Provider == oldest.Provider {
			t.Error("the budget did not evict the record published longest ago")
		}
	}
}

// TestStateLayoutsArePointerFree: a provider record at rest holds
// nothing the collector has to trace. A field that brings a pointer
// back fails here before it shows in a profile.
func TestStateLayoutsArePointerFree(t *testing.T) {
	if err := slab.PointerFree(reflect.TypeOf(providerSlot{})); err != nil {
		t.Error(err)
	}
}

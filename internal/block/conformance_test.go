package block

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/cid"
	"repro/internal/multicodec"
)

// TestStoreConformance runs the same behavioural suite over every
// Store implementation, so a new backend (PackStore) cannot drift from
// the semantics the node, Bitswap and the gateway rely on.
func TestStoreConformance(t *testing.T) {
	backends := []struct {
		name string
		mk   func(t *testing.T) Store
	}{
		{"mem", func(t *testing.T) Store { return NewMemStore() }},
		// Capped far above what the suite stores, so nothing is evicted.
		{"lru", func(t *testing.T) Store { return NewLRUStore(1 << 20) }},
		{"pack", func(t *testing.T) Store {
			s, err := NewPackStore(t.TempDir(), PackConfig{DisableBackground: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) { testRoundTrip(t, be.mk(t)) })
			t.Run("NotFound", func(t *testing.T) { testNotFound(t, be.mk(t)) })
			t.Run("RejectsMismatch", func(t *testing.T) { testRejectsMismatch(t, be.mk(t)) })
			t.Run("RejectsUndefinedCid", func(t *testing.T) { testRejectsUndefined(t, be.mk(t)) })
			t.Run("PutIdempotent", func(t *testing.T) { testPutIdempotent(t, be.mk(t)) })
			t.Run("DeleteThenReput", func(t *testing.T) { testDeleteThenReput(t, be.mk(t)) })
			t.Run("EmptyBlock", func(t *testing.T) { testEmptyBlock(t, be.mk(t)) })
		})
	}
}

func testRoundTrip(t *testing.T, s Store) {
	var blocks []Block
	for i := 0; i < 20; i++ {
		b := New(multicodec.Raw, []byte(fmt.Sprintf("block-%d", i)))
		blocks = append(blocks, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != len(blocks) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(blocks))
	}
	for _, want := range blocks {
		if !s.Has(want.Cid()) {
			t.Fatalf("Has(%s) = false after Put", want.Cid())
		}
		got, err := s.Get(want.Cid())
		if err != nil {
			t.Fatal(err)
		}
		if string(got.Data()) != string(want.Data()) {
			t.Fatalf("Get(%s) = %q, want %q", want.Cid(), got.Data(), want.Data())
		}
		if got.Cid().Key() != want.Cid().Key() {
			t.Fatalf("Get returned cid %s, want %s", got.Cid(), want.Cid())
		}
	}
	victim := blocks[7]
	s.Delete(victim.Cid())
	if s.Has(victim.Cid()) {
		t.Fatal("Has true after Delete")
	}
	if _, err := s.Get(victim.Cid()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after Delete = %v, want ErrNotFound", err)
	}
	if s.Len() != len(blocks)-1 {
		t.Fatalf("Len after Delete = %d", s.Len())
	}
}

func testNotFound(t *testing.T, s Store) {
	c := cid.Sum(multicodec.Raw, []byte("never stored"))
	if _, err := s.Get(c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if s.Has(c) {
		t.Fatal("Has = true for missing block")
	}
	s.Delete(c) // deleting a missing block is a no-op, not a panic
}

func testRejectsMismatch(t *testing.T, s Store) {
	c := cid.Sum(multicodec.Raw, []byte("real"))
	if err := s.Put(Block{cid: c, data: []byte("fake")}); !errors.Is(err, ErrHashMismatch) {
		t.Fatalf("Put mismatched = %v, want ErrHashMismatch", err)
	}
	if s.Len() != 0 {
		t.Fatal("mismatched block was stored")
	}
}

func testRejectsUndefined(t *testing.T, s Store) {
	if err := s.Put(Block{data: []byte("no cid")}); err == nil {
		t.Fatal("Put with undefined CID succeeded")
	}
}

func testPutIdempotent(t *testing.T, s Store) {
	b := New(multicodec.Raw, []byte("same bytes"))
	for i := 0; i < 3; i++ {
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len after re-Put = %d, want 1", s.Len())
	}
}

func testDeleteThenReput(t *testing.T, s Store) {
	b := New(multicodec.Raw, []byte("comes back"))
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	s.Delete(b.Cid())
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(b.Cid())
	if err != nil {
		t.Fatalf("Get after delete+reput: %v", err)
	}
	if string(got.Data()) != "comes back" {
		t.Fatalf("data = %q", got.Data())
	}
}

func testEmptyBlock(t *testing.T, s Store) {
	b := New(multicodec.Raw, nil)
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(b.Cid())
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 {
		t.Fatalf("Size = %d, want 0", got.Size())
	}
}

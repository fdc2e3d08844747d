package block

import (
	"testing"
	"testing/quick"

	"repro/internal/cid"
	"repro/internal/multicodec"
)

func TestNewAndVerify(t *testing.T) {
	b := New(multicodec.Raw, []byte("block data"))
	if !b.Cid().Verify(b.Data()) {
		t.Error("block CID must verify its data")
	}
	if b.Size() != 10 {
		t.Errorf("Size = %d", b.Size())
	}
}

func TestNewWithCidRejectsMismatch(t *testing.T) {
	c := cid.Sum(multicodec.Raw, []byte("real"))
	if _, err := NewWithCid(c, []byte("fake")); err != ErrHashMismatch {
		t.Errorf("err = %v, want ErrHashMismatch", err)
	}
	if _, err := NewWithCid(c, []byte("real")); err != nil {
		t.Errorf("matching data: %v", err)
	}
}

func TestMemStoreCRUD(t *testing.T) {
	s := NewMemStore()
	b := New(multicodec.Raw, []byte("x"))
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if !s.Has(b.Cid()) || s.Len() != 1 {
		t.Error("Put did not store")
	}
	got, err := s.Get(b.Cid())
	if err != nil || !got.Cid().Equal(b.Cid()) {
		t.Errorf("Get = %v, %v", got.Cid(), err)
	}
	s.Delete(b.Cid())
	if s.Has(b.Cid()) {
		t.Error("Delete did not remove")
	}
	if _, err := s.Get(b.Cid()); err != ErrNotFound {
		t.Errorf("Get after delete: %v, want ErrNotFound", err)
	}
}

func TestMemStoreRejectsCorruptBlock(t *testing.T) {
	s := NewMemStore()
	bad := Block{cid: cid.Sum(multicodec.Raw, []byte("a")), data: []byte("b")}
	if err := s.Put(bad); err != ErrHashMismatch {
		t.Errorf("Put corrupt block: %v, want ErrHashMismatch", err)
	}
	if err := s.Put(Block{}); err == nil {
		t.Error("Put zero block should fail")
	}
}

func TestMemStorePinning(t *testing.T) {
	s := NewMemStore()
	b := New(multicodec.Raw, []byte("pinned"))
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	s.Pin(b.Cid())
	if !s.Pinned(b.Cid()) {
		t.Error("Pinned should be true")
	}
	s.Delete(b.Cid())
	if !s.Has(b.Cid()) {
		t.Error("pinned blocks must survive Delete")
	}
	s.Unpin(b.Cid())
	s.Delete(b.Cid())
	if s.Has(b.Cid()) {
		t.Error("unpinned block should be deletable")
	}
}

func TestMemStoreTotalBytes(t *testing.T) {
	s := NewMemStore()
	s.Put(New(multicodec.Raw, make([]byte, 100)))
	s.Put(New(multicodec.Raw, make([]byte, 28)))
	if s.TotalBytes() != 128 {
		t.Errorf("TotalBytes = %d, want 128", s.TotalBytes())
	}
}

// TestLRUStoreCountsBlockBytes pins what the adapter adds to the cache
// beneath it (whose own contract internal/lru tests): entries weigh
// their payload, and a block larger than the whole store is accepted
// without error and not kept.
func TestLRUStoreCountsBlockBytes(t *testing.T) {
	s := NewLRUStore(250)
	var blocks []Block
	for i := 0; i < 3; i++ {
		b := New(multicodec.Raw, append(make([]byte, 97), byte(i)))
		blocks = append(blocks, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Has(blocks[0].Cid()) || !s.Has(blocks[1].Cid()) || !s.Has(blocks[2].Cid()) {
		t.Error("three 98-byte blocks in 250 bytes: want exactly the oldest evicted")
	}
	if s.UsedBytes() != 196 || s.Len() != 2 {
		t.Errorf("UsedBytes = %d, Len = %d, want 196 and 2", s.UsedBytes(), s.Len())
	}
	big := New(multicodec.Raw, make([]byte, 251))
	if err := s.Put(big); err != nil {
		t.Errorf("Put of an oversized block: %v, want nil", err)
	}
	if s.Has(big.Cid()) || s.Len() != 2 {
		t.Error("oversized block was kept, or evicted others")
	}
}

func TestQuickStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	f := func(data []byte) bool {
		b := New(multicodec.Raw, data)
		if err := s.Put(b); err != nil {
			return false
		}
		got, err := s.Get(b.Cid())
		return err == nil && string(got.Data()) == string(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

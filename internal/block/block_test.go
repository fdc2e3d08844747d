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

// TestOwningConstructors: NewOwned and NewWithCid keep the slice they
// are given (New copies), and neither yields a block without hashing —
// NewWithCid refuses a mismatch, NewOwned's CID is the hash of its
// bytes.
func TestOwningConstructors(t *testing.T) {
	data := []byte("owned bytes")
	owned := NewOwned(multicodec.Raw, data)
	if &owned.Data()[0] != &data[0] {
		t.Error("NewOwned copied its input")
	}
	if !owned.Cid().Equal(cid.Sum(multicodec.Raw, data)) || !owned.hashed {
		t.Error("NewOwned: CID is not the hash of the data, or the block is unmarked")
	}
	copied := New(multicodec.Raw, data)
	if &copied.Data()[0] == &data[0] {
		t.Error("New must keep its defensive copy")
	}
	got, err := NewWithCid(owned.Cid(), data)
	if err != nil || &got.Data()[0] != &data[0] || !got.hashed {
		t.Errorf("NewWithCid of matching data: err %v, copied %v", err, &got.Data()[0] != &data[0])
	}
	if bad, err := NewWithCid(owned.Cid(), []byte("other bytes")); err != ErrHashMismatch || bad.hashed || bad.Cid().Defined() {
		t.Errorf("NewWithCid of a mismatch = %+v, %v", bad, err)
	}
}

// TestPutHashesOnlyUnmarkedBlocks observes whether Put hashes by
// breaking, on purpose, the rule that a block's bytes are never written:
// a constructed (marked) block whose bytes were flipped afterwards is
// accepted by every backend, so Put did not hash it again; the same
// CID and bytes as an unmarked literal are refused, so the hash of
// anything a constructor did not vouch for is still there.
func TestPutHashesOnlyUnmarkedBlocks(t *testing.T) {
	pack, err := NewPackStore(t.TempDir(), PackConfig{DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pack.Close()
	stores := map[string]Store{"mem": NewMemStore(), "lru": NewLRUStore(1 << 20), "pack": pack}
	for name, s := range stores {
		b := New(multicodec.Raw, []byte("hashed once, by the constructor"))
		b.data[0] ^= 0xff
		if err := s.Put(Block{cid: b.cid, data: b.data}); err != ErrHashMismatch {
			t.Errorf("%s: Put of the unmarked literal = %v, want ErrHashMismatch", name, err)
		}
		if err := s.Put(b); err != nil {
			t.Errorf("%s: Put re-hashed a block its constructor had hashed: %v", name, err)
		}
	}
	// The disk boundary still hashes: what the persistent store wrote
	// above does not match its CID, and Get says so.
	b := New(multicodec.Raw, []byte("hashed once, by the constructor"))
	if _, err := pack.Get(b.Cid()); err == nil {
		t.Error("pack: Get served bytes that do not match their CID")
	}
}

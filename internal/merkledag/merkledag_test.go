package merkledag

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/multicodec"
)

func TestNodeEncodeDecodeLeaf(t *testing.T) {
	n := &Node{Data: []byte("leaf payload")}
	back, err := DecodeNode(n.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Data, n.Data) || len(back.Links) != 0 {
		t.Errorf("round trip = %+v", back)
	}
}

func TestNodeEncodeDecodeInner(t *testing.T) {
	c1 := cid.Sum(multicodec.DagPB, []byte("a"))
	c2 := cid.Sum(multicodec.DagPB, []byte("b"))
	n := &Node{Links: []Link{{Cid: c1, Size: 10}, {Cid: c2, Size: 20}}}
	back, err := DecodeNode(n.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Links) != 2 || !back.Links[0].Cid.Equal(c1) || back.Links[1].Size != 20 {
		t.Errorf("round trip = %+v", back)
	}
	if back.ContentSize() != 30 {
		t.Errorf("ContentSize = %d", back.ContentSize())
	}
}

// malformedNodes are encodings DecodeNode must refuse; FuzzDecodeNode
// starts from them too.
var malformedNodes = [][]byte{
	nil,
	{0x00},
	{0xDA, 0x99, 0x00},
	{0xDA, 0x00, 0x05, 0x01},       // claims 5 data bytes, has 1
	{0xDA, 0x01, 0x01, 0x02, 0x01}, // truncated link cid
	{0xDA, 0x01, 0x00, 0x00},       // inner marker, zero links: the leaf da 00 00 spelled twice
}

func TestDecodeNodeErrors(t *testing.T) {
	for i, raw := range malformedNodes {
		if _, err := DecodeNode(raw); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v, want ErrMalformed", i, err)
		}
	}
}

// TestFetchInvalidNode: a block that hashes to the CID asked for but
// does not decode is ErrInvalid (and still ErrMalformed); a missing one
// is neither.
func TestFetchInvalidNode(t *testing.T) {
	store := block.NewMemStore()
	for i, raw := range malformedNodes {
		blk := block.New(multicodec.DagPB, raw)
		if err := store.Put(blk); err != nil {
			t.Fatal(err)
		}
		if _, err := Fetch(store, blk.Cid()); !errors.Is(err, ErrInvalid) || !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: err = %v, want ErrInvalid and ErrMalformed", i, err)
		}
	}
	if _, err := Fetch(store, cid.Sum(multicodec.DagPB, []byte("absent"))); !errors.Is(err, ErrMissing) || errors.Is(err, ErrInvalid) {
		t.Errorf("missing block: err = %v, want ErrMissing alone", err)
	}
}

// FuzzDecodeNode: DecodeNode never panics, and whatever it accepts is
// the one encoding of its node, so no two CIDs name one node.
func FuzzDecodeNode(f *testing.F) {
	for _, raw := range malformedNodes {
		f.Add(raw)
	}
	named := &Node{Links: []Link{{Cid: cid.Sum(multicodec.DagPB, []byte("a")), Size: 10, Name: "réadme.md"}}, Data: []byte("dir")}
	for _, n := range []*Node{{}, {Data: []byte("leaf payload")}, named} {
		f.Add(n.Encode())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		n, err := DecodeNode(raw)
		if err != nil {
			return
		}
		if enc := n.Encode(); !bytes.Equal(enc, raw) {
			t.Fatalf("%x decodes, but re-encodes as %x", raw, enc)
		}
	})
}

func TestAddSingleChunk(t *testing.T) {
	store := block.NewMemStore()
	b := NewBuilder(store, 1024, 4)
	data := []byte("fits in one chunk")
	root, err := b.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 1 {
		t.Errorf("store has %d blocks, want 1", store.Len())
	}
	got, err := Assemble(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("Assemble mismatch")
	}
}

func TestAddMultiLevel(t *testing.T) {
	store := block.NewMemStore()
	b := NewBuilder(store, 16, 2)                        // tiny params force a deep tree
	data := bytes.Repeat([]byte("0123456789abcdef"), 16) // 16 chunks
	root, err := b.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assemble(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("Assemble mismatch on multi-level DAG")
	}
	cids, err := AllCids(store, root)
	if err != nil {
		t.Fatal(err)
	}
	leaves, size := 0, 0
	for _, c := range cids {
		n, err := Fetch(store, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(n.Links) == 0 {
			leaves++
			size += len(n.Data)
		}
	}
	if leaves != 16 {
		t.Errorf("leaves = %d, want 16", leaves)
	}
	if size != len(data) {
		t.Errorf("leaf bytes = %d, want %d", size, len(data))
	}
	// 16 leaves with fanout 2: depth = 1 + ceil(log2(16)) = 5. The
	// builder stacks whole levels, so the first and last paths down
	// are as long as every other.
	for _, last := range []bool{false, true} {
		depth, c := 0, root
		for {
			n, err := Fetch(store, c)
			if err != nil {
				t.Fatal(err)
			}
			depth++
			if len(n.Links) == 0 {
				break
			}
			c = n.Links[0].Cid
			if last {
				c = n.Links[len(n.Links)-1].Cid
			}
		}
		if depth != 5 {
			t.Errorf("depth (last=%v) = %d, want 5", last, depth)
		}
	}
}

func TestDeduplication(t *testing.T) {
	// The same chunk appearing many times is stored once: the dedup
	// property §2.1 attributes to Merkle DAGs.
	store := block.NewMemStore()
	b := NewBuilder(store, 16, 4)
	repeated := bytes.Repeat([]byte("samechunk16bytes"), 8) // 8 identical chunks
	root, err := b.Add(repeated)
	if err != nil {
		t.Fatal(err)
	}
	// AllCids lists a shared block once per link to it: the logical
	// nodes.
	cids, err := AllCids(store, root)
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	for _, c := range cids {
		if n, err := Fetch(store, c); err != nil {
			t.Fatal(err)
		} else if len(n.Links) == 0 {
			leaves++
		}
	}
	if leaves != 8 {
		t.Errorf("logical leaves = %d, want 8", leaves)
	}
	// Physically: 1 unique leaf + interior nodes. 8 links/fanout 4 = 2
	// inner (identical → dedup to... they have identical links so also 1)
	// + root. Just assert far fewer blocks than logical nodes.
	if store.Len() >= len(cids) {
		t.Errorf("store holds %d blocks for %d logical nodes; expected de-duplication", store.Len(), len(cids))
	}
	got, err := Assemble(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, repeated) {
		t.Error("Assemble mismatch after dedup")
	}
}

func TestSameContentSameRoot(t *testing.T) {
	s1, s2 := block.NewMemStore(), block.NewMemStore()
	data := []byte("location independence")
	r1, _ := NewBuilder(s1, 8, 2).Add(data)
	r2, _ := NewBuilder(s2, 8, 2).Add(data)
	if !r1.Equal(r2) {
		t.Error("same content and parameters must produce the same root CID")
	}
	r3, _ := NewBuilder(block.NewMemStore(), 4, 2).Add(data)
	if r1.Equal(r3) {
		t.Error("different chunk size should change the root CID")
	}
}

func TestAssembleMissingBlock(t *testing.T) {
	store := block.NewMemStore()
	b := NewBuilder(store, 8, 2)
	data := bytes.Repeat([]byte{7}, 64)
	root, err := b.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	// Remove one leaf.
	cids, err := AllCids(store, root)
	if err != nil {
		t.Fatal(err)
	}
	store.Delete(cids[len(cids)-1])
	if _, err := Assemble(store, root); err == nil {
		t.Error("Assemble with missing block should fail")
	}
}

func TestEmptyContent(t *testing.T) {
	store := block.NewMemStore()
	root, err := NewBuilder(store, 0, 0).Add(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Assemble(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty content reassembled to %d bytes", len(got))
	}
}

func TestAllCidsRootFirst(t *testing.T) {
	store := block.NewMemStore()
	root, err := NewBuilder(store, 8, 2).Add(bytes.Repeat([]byte{1}, 32))
	if err != nil {
		t.Fatal(err)
	}
	cids, err := AllCids(store, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(cids) == 0 || !cids[0].Equal(root) {
		t.Error("AllCids should list the root first")
	}
}

func TestQuickAddAssembleRoundTrip(t *testing.T) {
	f := func(data []byte, chunkSz, fanout uint8) bool {
		store := block.NewMemStore()
		b := NewBuilder(store, int(chunkSz%64)+1, int(fanout%8)+2)
		root, err := b.Add(data)
		if err != nil {
			return false
		}
		got, err := Assemble(store, root)
		return err == nil && bytes.Equal(got, data)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickNodeRoundTrip(t *testing.T) {
	f := func(data []byte, nlinks uint8) bool {
		n := &Node{Data: data}
		for i := 0; i < int(nlinks%5); i++ {
			n.Links = append(n.Links, Link{Cid: cid.Sum(multicodec.Raw, []byte{byte(i)}), Size: uint64(i) * 7})
		}
		back, err := DecodeNode(n.Encode())
		if err != nil {
			return false
		}
		if !bytes.Equal(back.Data, n.Data) || len(back.Links) != len(n.Links) {
			return false
		}
		for i := range n.Links {
			if !back.Links[i].Cid.Equal(n.Links[i].Cid) || back.Links[i].Size != n.Links[i].Size {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

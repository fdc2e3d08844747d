package merkledag

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/multicodec"
)

// put stores n and returns its CID.
func put(t testing.TB, store block.Store, n *Node) cid.Cid {
	t.Helper()
	blk := block.New(multicodec.DagPB, n.Encode())
	if err := store.Put(blk); err != nil {
		t.Fatal(err)
	}
	return blk.Cid()
}

// walkSizes walks root with workers and returns the bytes of the leaves
// visited, whether they ever totalled more than limit, and the walk's
// error.
func walkSizes(f Fetcher, root cid.Cid, workers int, limit uint64) (content []byte, over bool, err error) {
	err = Walk(context.Background(), nil, f, root, workers, func(_ cid.Cid, n *Node) error {
		if len(n.Links) == 0 {
			content = append(content, n.Data...)
			over = over || uint64(len(content)) > limit
		}
		return nil
	})
	return content, over, err
}

// TestWalkHoldsChildrenToLinkSizes: a root whose links declare sizes
// its children do not hold is refused, with one worker or eight, and
// the refused child is never visited, and the walk fails ErrInvalid:
// short, over, reached before the
// last leaf, 1 TiB, and a sum that overflows. The root's own Data (a
// directory marker) is not content.
func TestWalkHoldsChildrenToLinkSizes(t *testing.T) {
	store := block.NewMemStore()
	a, b := bytes.Repeat([]byte{'a'}, 300), bytes.Repeat([]byte{'b'}, 500)
	ca, cb := put(t, store, &Node{Data: a}), put(t, store, &Node{Data: b})
	for _, c := range []struct {
		sizes []uint64
		data  []byte
		ok    bool
	}{
		{[]uint64{300, 500}, nil, true},
		{[]uint64{300, 500}, []byte("unixfs:dir"), true},
		{[]uint64{300, 600}, nil, false},
		{[]uint64{300, 400}, nil, false},
		{[]uint64{300, 0}, nil, false},
		{[]uint64{1 << 40, 500}, nil, false},
		{[]uint64{300, math.MaxUint64}, nil, false},
	} {
		root := &Node{Data: c.data, Links: []Link{{Cid: ca, Size: c.sizes[0]}, {Cid: cb, Size: c.sizes[1]}}}
		rc := put(t, store, root)
		for _, workers := range []int{1, 8} {
			content, over, err := walkSizes(store, rc, workers, root.ContentSize())
			if (err == nil) != c.ok || over || (err != nil && !errors.Is(err, ErrInvalid)) {
				t.Errorf("sizes %v, workers %d: err %v after %d bytes, over the declared %d: %v", c.sizes, workers, err, len(content), root.ContentSize(), over)
			}
			if want := append(append([]byte(nil), a...), b...); c.ok && !bytes.Equal(content, want) {
				t.Errorf("sizes %v, workers %d: %d bytes back, want the %d of both leaves", c.sizes, workers, len(content), len(want))
			}
			if !c.ok && len(content) > len(a) {
				t.Errorf("sizes %v, workers %d: visited %d bytes, past the first leaf", c.sizes, workers, len(content))
			}
		}
	}
}

// fuzzDAG builds a small DAG from shape into store and returns its
// root. Each byte b adds a node: for even b (or nothing to link) a leaf
// of b/2%8 bytes, else an interior node over the last 1+b/2%4 nodes
// that have no parent yet, with a marker as its own Data if b ≥ 0x80.
// Each link reads one more byte s for its Size: s = 0xff declares
// math.MaxUint64, s%4 = 0 declares s/4, anything else the child's
// ContentSize. A node has at most one parent, so the DAG is a tree of
// at most len(shape)+1 nodes. The parentless nodes left at the end hang
// from a root whose links tell the truth.
func fuzzDAG(t *testing.T, store block.Store, shape []byte) (cid.Cid, *Node) {
	type built struct {
		c cid.Cid
		n *Node
	}
	var free []built
	for i := 0; i < len(shape); i++ {
		b := shape[i]
		n := &Node{}
		if b%2 == 0 || len(free) == 0 {
			n.Data = bytes.Repeat([]byte{byte(i)}, int(b/2%8))
		} else {
			k := min(len(free), 1+int(b/2%4))
			if b >= 0x80 {
				n.Data = []byte("dir")
			}
			for _, kid := range free[len(free)-k:] {
				size := kid.n.ContentSize()
				if i+1 < len(shape) {
					i++
					switch s := shape[i]; {
					case s == 0xff:
						size = math.MaxUint64
					case s%4 == 0:
						size = uint64(s / 4)
					}
				}
				n.Links = append(n.Links, Link{Cid: kid.c, Size: size})
			}
			free = free[:len(free)-k]
		}
		free = append(free, built{put(t, store, n), n})
	}
	root := &Node{}
	for _, kid := range free {
		root.Links = append(root.Links, Link{Cid: kid.c, Size: kid.n.ContentSize()})
	}
	if len(root.Links) == 0 {
		root.Data = []byte{}
	}
	return put(t, store, root), root
}

// FuzzWalkSizes: on a small DAG with random link sizes, walks with one
// and eight workers agree on success; neither ever visits leaves
// totalling more than the root's ContentSize, and a walk that succeeds
// visits exactly that.
func FuzzWalkSizes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 4, 6, 3, 1, 1})             // two leaves under a truthful node, beside a third
	f.Add([]byte{2, 4, 0x83, 1, 1})             // two leaves under a node with a directory marker
	f.Add([]byte{2, 4, 3, 1, 0x10})             // the second link declares 4 bytes of 2
	f.Add([]byte{2, 4, 3, 0x04, 1})             // the first link declares 1 byte of 1 — the truth
	f.Add([]byte{2, 0, 6, 5, 1, 0, 1})          // an empty leaf whose link declares 0
	f.Add([]byte{2, 4, 3, 0xff, 1, 2, 3, 1, 1}) // a link declaring math.MaxUint64
	f.Fuzz(func(t *testing.T, shape []byte) {
		if len(shape) > 256 {
			return
		}
		store := block.NewMemStore()
		root, n := fuzzDAG(t, store, shape)
		var oks [2]bool
		for i, workers := range []int{1, 8} {
			content, over, err := walkSizes(store, root, workers, n.ContentSize())
			if over {
				t.Fatalf("workers %d: visited %d bytes, over the %d the root declares", workers, len(content), n.ContentSize())
			}
			if oks[i] = err == nil; oks[i] && uint64(len(content)) != n.ContentSize() {
				t.Fatalf("workers %d: a walk that succeeded visited %d bytes, the root declares %d", workers, len(content), n.ContentSize())
			}
		}
		if oks[0] != oks[1] {
			t.Fatalf("one worker succeeded: %v, eight: %v", oks[0], oks[1])
		}
	})
}

package merkledag

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
)

// assemble is Assemble over a walk with the given number of workers.
func assemble(f Fetcher, root cid.Cid, workers int) ([]byte, error) {
	var leaves [][]byte
	if err := Walk(context.Background(), nil, f, root, workers, AppendLeaves(&leaves)); err != nil {
		return nil, err
	}
	return bytes.Join(leaves, nil), nil
}

func TestAssembleConcurrentMatchesSequential(t *testing.T) {
	store := block.NewMemStore()
	data := bytes.Repeat([]byte("concurrent assembly test "), 4000)
	root, err := NewBuilder(store, 512, 4).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8, 64} {
		got, err := assemble(store, root, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("workers=%d: output differs from input", workers)
		}
	}
}

// countingFetcher counts concurrent Get calls to verify the semaphore.
type countingFetcher struct {
	inner   Fetcher
	cur     int64
	maxSeen int64
}

func (c *countingFetcher) Get(id cid.Cid) (block.Block, error) {
	n := atomic.AddInt64(&c.cur, 1)
	for {
		m := atomic.LoadInt64(&c.maxSeen)
		if n <= m || atomic.CompareAndSwapInt64(&c.maxSeen, m, n) {
			break
		}
	}
	defer atomic.AddInt64(&c.cur, -1)
	return c.inner.Get(id)
}

func TestAssembleConcurrentRespectsWorkerBound(t *testing.T) {
	store := block.NewMemStore()
	data := bytes.Repeat([]byte{9}, 64*1024)
	root, err := NewBuilder(store, 256, 8).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	cf := &countingFetcher{inner: store}
	if _, err := assemble(cf, root, 4); err != nil {
		t.Fatal(err)
	}
	if cf.maxSeen > 4 {
		t.Errorf("max concurrent fetches = %d, bound was 4", cf.maxSeen)
	}
}

type failingFetcher struct {
	inner Fetcher
	fail  cid.Cid
}

func (f *failingFetcher) Get(c cid.Cid) (block.Block, error) {
	if c.Equal(f.fail) {
		return block.Block{}, errors.New("injected failure")
	}
	return f.inner.Get(c)
}

func TestAssembleConcurrentPropagatesErrors(t *testing.T) {
	store := block.NewMemStore()
	root, err := NewBuilder(store, 64, 4).Add(bytes.Repeat([]byte{1}, 2048))
	if err != nil {
		t.Fatal(err)
	}
	cids, err := AllCids(store, root)
	if err != nil {
		t.Fatal(err)
	}
	ff := &failingFetcher{inner: store, fail: cids[len(cids)-1]}
	if _, err := assemble(ff, root, 8); err == nil {
		t.Error("injected failure should propagate")
	}
}

func TestNamedLinksRoundTrip(t *testing.T) {
	c1 := cid.Sum(0x55, []byte("child"))
	n := &Node{Links: []Link{{Cid: c1, Size: 5, Name: "réadme.md"}}}
	back, err := DecodeNode(n.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Links[0].Name != "réadme.md" {
		t.Errorf("name = %q", back.Links[0].Name)
	}
}

func TestQuickConcurrentAssembleRoundTrip(t *testing.T) {
	f := func(data []byte, chunkSz uint8) bool {
		store := block.NewMemStore()
		root, err := NewBuilder(store, int(chunkSz%64)+1, 3).Add(data)
		if err != nil {
			return false
		}
		got, err := assemble(store, root, 6)
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAssembleResultIsCallersCopy: the assembled object is the caller's
// own allocation, never a view of a stored block. Scribbling over every
// returned byte must leave every block in the store matching its CID —
// including the single-leaf DAG, whose root's payload is the whole
// object.
func TestAssembleResultIsCallersCopy(t *testing.T) {
	for _, size := range []int{25, 5 * 64} {
		store := block.NewMemStore()
		data := bytes.Repeat([]byte{0x5a}, size)
		root, err := NewBuilder(store, 64, 4).Add(data)
		if err != nil {
			t.Fatal(err)
		}
		cids, err := AllCids(store, root)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Assemble(store, root)
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("size=%d: assemble: %v", size, err)
		}
		for i := range out {
			out[i] ^= 0xff
		}
		for _, c := range cids {
			blk, err := store.Get(c)
			if err != nil {
				t.Fatal(err)
			}
			if !c.Verify(blk.Data()) {
				t.Errorf("size=%d: writing the result corrupted stored block %s", size, c)
			}
		}
	}
}

// swappingFetcher answers a request for one CID with a valid block for
// another.
type swappingFetcher struct {
	inner    Fetcher
	ask, got cid.Cid
}

func (f *swappingFetcher) Get(c cid.Cid) (block.Block, error) {
	if c.Equal(f.ask) {
		return f.inner.Get(f.got)
	}
	return f.inner.Get(c)
}

// TestWalkRefusesBlockForAnotherCid: the walk no longer re-hashes what a
// constructor already hashed, so the comparison of the block's CID with
// the one asked for is the check — a well-formed, self-consistent block
// under the wrong CID must fail it, as must the zero Block. That failure
// is the copy's, not the DAG's, so it is not ErrInvalid.
func TestWalkRefusesBlockForAnotherCid(t *testing.T) {
	store := block.NewMemStore()
	root, err := NewBuilder(store, 64, 4).Add(bytes.Repeat([]byte{7}, 5*64))
	if err != nil {
		t.Fatal(err)
	}
	cids, err := AllCids(store, root)
	if err != nil {
		t.Fatal(err)
	}
	// Two distinct leaves would do; the last leaf answered with the
	// root is the most different pair there is.
	sf := &swappingFetcher{inner: store, ask: cids[len(cids)-1], got: root}
	if _, err := Assemble(sf, root); err == nil || errors.Is(err, ErrInvalid) {
		t.Errorf("Assemble of a block for another CID: err %v, want a failure that is not ErrInvalid", err)
	}
	if _, err := assemble(sf, root, 8); err == nil {
		t.Error("an 8-worker walk accepted a block for another CID")
	}
	if _, err := AllCids(sf, root); err == nil {
		t.Error("AllCids accepted a block for another CID")
	}
	zero := fetcherFunc(func(cid.Cid) (block.Block, error) { return block.Block{}, nil })
	if _, err := Assemble(zero, root); err == nil {
		t.Error("Assemble accepted the zero Block")
	}
}

type fetcherFunc func(cid.Cid) (block.Block, error)

func (f fetcherFunc) Get(c cid.Cid) (block.Block, error) { return f(c) }

// TestEncodeAllocatesExactSize: the builder hands Encode's buffer to
// the block as it is, so it must be one allocation with no slack.
func TestEncodeAllocatesExactSize(t *testing.T) {
	leaf := &Node{Data: bytes.Repeat([]byte{1}, 1000)}
	inner := &Node{Links: []Link{
		{Cid: cid.Sum(0x70, []byte("a")), Size: 1 << 40, Name: "réadme.md"},
		{Cid: cid.Sum(0x70, []byte("b")), Size: 3},
	}, Data: []byte("dir")}
	for _, n := range []*Node{leaf, inner, {}} {
		enc := n.Encode()
		if len(enc) != cap(enc) {
			t.Errorf("Encode: len %d, cap %d", len(enc), cap(enc))
		}
		if a := testing.AllocsPerRun(10, func() { n.Encode() }); a != 1 {
			t.Errorf("Encode allocates %v times, want 1", a)
		}
	}
}

// TestWalkVisitsLeafBeforeLaterSiblingsArrive: a leaf reaches the
// visitor as soon as it and the siblings before it have verified, while
// later siblings are still being fetched — here the last leaf's fetch
// waits until the first leaf has been visited. Visits stay in
// pre-order, and AllCids' order is the walk's.
func TestWalkVisitsLeafBeforeLaterSiblingsArrive(t *testing.T) {
	store := block.NewMemStore()
	data := make([]byte, 1024) // eight distinct leaves
	rand.New(rand.NewSource(8)).Read(data)
	root, err := NewBuilder(store, 128, 16).Add(data)
	if err != nil {
		t.Fatal(err)
	}
	cids, err := AllCids(store, root)
	if err != nil {
		t.Fatal(err)
	}
	firstSeen := make(chan struct{})
	last := cids[len(cids)-1]
	gated := fetcherFunc(func(c cid.Cid) (block.Block, error) {
		if c.Equal(last) {
			select {
			case <-firstSeen:
			case <-time.After(10 * time.Second):
				return block.Block{}, errors.New("the first leaf was not visited while the last was in flight")
			}
		}
		return store.Get(c)
	})
	var order []cid.Cid
	var content []byte
	err = Walk(context.Background(), nil, gated, root, 4, func(c cid.Cid, n *Node) error {
		if len(order) == 1 {
			close(firstSeen)
		}
		order = append(order, c)
		if len(n.Links) == 0 {
			content = append(content, n.Data...)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content, data) || len(order) != len(cids) {
		t.Fatalf("visited %d nodes and %d bytes, want %d and %d", len(order), len(content), len(cids), len(data))
	}
	for i := range cids {
		if !order[i].Equal(cids[i]) {
			t.Fatalf("visit %d is %s, AllCids has %s", i, order[i], cids[i])
		}
	}
}

// TestWalkStopsAtVisitorError: the visitor's error is the walk's, and
// no leaf after the refused one is visited.
func TestWalkStopsAtVisitorError(t *testing.T) {
	store := block.NewMemStore()
	root, err := NewBuilder(store, 64, 8).Add(bytes.Repeat([]byte{3}, 6*64))
	if err != nil {
		t.Fatal(err)
	}
	refuse := errors.New("client gone")
	for _, workers := range []int{1, 8} {
		leaves := 0
		err := Walk(context.Background(), nil, store, root, workers, func(_ cid.Cid, n *Node) error {
			if len(n.Links) > 0 {
				return nil
			}
			if leaves++; leaves == 2 {
				return refuse
			}
			return nil
		})
		if !errors.Is(err, refuse) || leaves != 2 {
			t.Errorf("workers=%d: walk returned %v after %d leaves, want the visitor's error after 2", workers, err, leaves)
		}
	}
}

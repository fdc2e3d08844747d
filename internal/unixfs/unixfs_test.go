package unixfs

import (
	"bytes"
	"testing"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/merkledag"
)

func setup() (*block.MemStore, *merkledag.Builder) {
	store := block.NewMemStore()
	return store, merkledag.NewBuilder(store, 1024, 8)
}

func TestMakeDirectoryAndList(t *testing.T) {
	store, b := setup()
	a, err := b.Add([]byte("file a"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Add([]byte("file c"))
	if err != nil {
		t.Fatal(err)
	}
	dir, err := MakeDirectory(store, []Entry{
		{Name: "c.txt", Cid: c, Size: 6},
		{Name: "a.txt", Cid: a, Size: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := List(store, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name != "a.txt" || entries[1].Name != "c.txt" {
		t.Errorf("entries = %+v (must be name-sorted)", entries)
	}
}

func TestMakeDirectoryValidation(t *testing.T) {
	store, b := setup()
	f, _ := b.Add([]byte("x"))
	cases := [][]Entry{
		{{Name: "", Cid: f}},
		{{Name: "a/b", Cid: f}},
		{{Name: "dup", Cid: f}, {Name: "dup", Cid: f}},
	}
	for i, entries := range cases {
		if _, err := MakeDirectory(store, entries); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestDirectoryDeduplication(t *testing.T) {
	store, b := setup()
	f, _ := b.Add([]byte("same"))
	d1, err := MakeDirectory(store, []Entry{{Name: "x", Cid: f, Size: 4}, {Name: "y", Cid: f, Size: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Different insertion order, same logical directory.
	d2, err := MakeDirectory(store, []Entry{{Name: "y", Cid: f, Size: 4}, {Name: "x", Cid: f, Size: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !d1.Equal(d2) {
		t.Error("identical directories must share a CID")
	}
}

func TestAddTreeAndResolve(t *testing.T) {
	store, b := setup()
	files := map[string][]byte{
		"index.html":         []byte("<html>home</html>"),
		"img/logo.png":       bytes.Repeat([]byte{0x89}, 3000),
		"img/icons/star.png": []byte("star"),
		"docs/readme.md":     []byte("# readme"),
	}
	root, err := AddTree(store, b, files)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range files {
		got, err := ReadFile(store, root, path)
		if err != nil {
			t.Fatalf("ReadFile(%q): %v", path, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("ReadFile(%q) mismatch", path)
		}
	}
	// Leading/trailing slashes are tolerated.
	if _, err := ReadFile(store, root, "/img/logo.png"); err != nil {
		t.Errorf("leading slash: %v", err)
	}
	// Root resolves to itself.
	self, err := Resolve(store, root, "")
	if err != nil || !self.Equal(root) {
		t.Errorf("empty path resolve = %v, %v", self, err)
	}
}

func TestResolveErrors(t *testing.T) {
	store, b := setup()
	root, err := AddTree(store, b, map[string][]byte{"a/b.txt": []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Resolve(store, root, "a/missing.txt"); err == nil {
		t.Error("missing entry should fail")
	}
	if _, err := Resolve(store, root, "a/b.txt/deeper"); err == nil {
		t.Error("descending into a file should fail")
	}
	if _, err := ReadFile(store, root, "a"); err == nil {
		t.Error("reading a directory should fail")
	}
	if _, err := List(store, root); err != nil {
		t.Errorf("List(root): %v", err)
	}
	fileCid, _ := b.Add([]byte("plain"))
	if _, err := List(store, fileCid); err == nil {
		t.Error("List on a file should fail")
	}
}

// swappingFetcher answers a request for one CID with a valid block for
// another.
type swappingFetcher struct {
	inner    merkledag.Fetcher
	ask, got cid.Cid
}

func (f swappingFetcher) Get(c cid.Cid) (block.Block, error) {
	if c.Equal(f.ask) {
		return f.inner.Get(f.got)
	}
	return f.inner.Get(c)
}

// TestReadersRefuseBlockForAnotherCid: every UnixFS read checks each
// block against the CID that named it, so a fetcher answering with a
// well-formed block for another CID — directory z for directory a, both
// holding an x, or one file for another — is caught, not served.
func TestReadersRefuseBlockForAnotherCid(t *testing.T) {
	store, b := setup()
	root, err := AddTree(store, b, map[string][]byte{"a/x": []byte("ax"), "z/x": []byte("zx")})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Resolve(store, root, "a")
	z, _ := Resolve(store, root, "z")
	x, _ := Resolve(store, root, "a/x")
	zx, _ := Resolve(store, root, "z/x")
	dirs := swappingFetcher{inner: store, ask: a, got: z}
	if ents, err := List(dirs, a); err == nil {
		t.Errorf("List answered %v from another directory's block", ents)
	}
	if c, err := Resolve(dirs, root, "a/x"); err == nil {
		t.Errorf("Resolve answered %s through another directory's block", c)
	}
	if got, err := ReadFile(dirs, root, "a/x"); err == nil {
		t.Errorf("ReadFile answered %q through another directory's block", got)
	}
	if got, err := ReadFile(swappingFetcher{inner: store, ask: x, got: zx}, root, "a/x"); err == nil {
		t.Errorf("ReadFile answered %q from another file's block", got)
	}
}

// countingFetcher counts the Gets for each CID.
type countingFetcher struct {
	inner merkledag.Fetcher
	gets  map[string]int
}

func (f countingFetcher) Get(c cid.Cid) (block.Block, error) {
	f.gets[c.Key()]++
	return f.inner.Get(c)
}

// TestReadFileFetchesEachBlockOnce: the directory check on the target
// and its assembly share one fetch.
func TestReadFileFetchesEachBlockOnce(t *testing.T) {
	store, b := setup()
	data := bytes.Repeat([]byte("0123456789"), 500) // 5 chunks under one inner node
	root, err := AddTree(store, b, map[string][]byte{"d/f": data})
	if err != nil {
		t.Fatal(err)
	}
	cf := countingFetcher{inner: store, gets: map[string]int{}}
	got, err := ReadFile(cf, root, "d/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile: %v", err)
	}
	for k, n := range cf.gets {
		if n != 1 {
			t.Errorf("block %x fetched %d times", k, n)
		}
	}
	// root, d, the file's inner node and its 5 leaves.
	if len(cf.gets) != 8 {
		t.Errorf("%d blocks fetched, want 8", len(cf.gets))
	}
}

func TestDirectoryNestedSizes(t *testing.T) {
	store, b := setup()
	root, err := AddTree(store, b, map[string][]byte{
		"a/one": make([]byte, 100),
		"a/two": make([]byte, 50),
		"top":   make([]byte, 10),
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := List(store, root)
	if err != nil {
		t.Fatal(err)
	}
	var aSize uint64
	for _, e := range entries {
		if e.Name == "a" {
			aSize = e.Size
		}
	}
	if aSize != 150 {
		t.Errorf("directory cumulative size = %d, want 150", aSize)
	}
}

func TestIsDirectoryDistinguishesFiles(t *testing.T) {
	store, b := setup()
	f, _ := b.Add([]byte("unixfs:dir")) // content that looks like the marker
	blk, _ := store.Get(f)
	n, err := merkledag.DecodeNode(blk.Data())
	if err != nil {
		t.Fatal(err)
	}
	// A leaf whose *content* is the marker IS indistinguishable at this
	// layer by data alone — but file leaves produced by the builder are
	// exactly that. Directories built by MakeDirectory always carry
	// links or an empty entry list plus the marker; here we simply
	// document that Resolve treats it as a directory with no entries.
	if IsDirectory(n) {
		if _, err := Resolve(store, f, "x"); err == nil {
			t.Error("empty 'directory' should resolve nothing")
		}
	}
}

// Package unixfs layers files and directories over the Merkle DAG, the
// way gateway URLs address content beneath a root CID:
// /ipfs/{CID}/path/to/file. Directories are DAG nodes whose named
// links point at entries; files are the anonymous balanced DAGs built
// by internal/merkledag.
package unixfs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/simtime"
)

// dirMarker tags a DAG node as a directory.
var dirMarker = []byte("unixfs:dir")

// Errors returned by this package.
var (
	ErrNotDirectory = errors.New("unixfs: not a directory")
	ErrNotFound     = errors.New("unixfs: path not found")
	ErrBadName      = errors.New("unixfs: invalid entry name")
)

// Entry is one directory member.
type Entry struct {
	Name string
	Cid  cid.Cid
	Size uint64
}

// IsDirectory reports whether a decoded DAG node is a directory.
func IsDirectory(n *merkledag.Node) bool {
	return len(n.Data) == len(dirMarker) && string(n.Data) == string(dirMarker)
}

// MakeDirectory stores a directory node linking the given entries and
// returns its CID. Entry names must be non-empty, slash-free and
// unique; entries are sorted so identical directories share a CID
// (the de-duplication property of §2.1). An Entry's Size must be the
// entry's content size (its root's merkledag ContentSize), as AddTree
// fills it: the walk holds every link to its Size, so a wrong one makes
// the directory unreadable without a path.
func MakeDirectory(store block.Store, entries []Entry) (cid.Cid, error) {
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.Name == "" || strings.ContainsAny(e.Name, "/\x00") {
			return cid.Cid{}, fmt.Errorf("%w: %q", ErrBadName, e.Name)
		}
		if seen[e.Name] {
			return cid.Cid{}, fmt.Errorf("%w: duplicate %q", ErrBadName, e.Name)
		}
		seen[e.Name] = true
	}
	sorted := append([]Entry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	n := &merkledag.Node{Data: append([]byte(nil), dirMarker...)}
	for _, e := range sorted {
		n.Links = append(n.Links, merkledag.Link{Cid: e.Cid, Size: e.Size, Name: e.Name})
	}
	blk := block.NewOwned(multicodec.DagPB, n.Encode())
	if err := store.Put(blk); err != nil {
		return cid.Cid{}, err
	}
	return blk.Cid(), nil
}

// List returns a directory's entries in name order.
func List(f merkledag.Fetcher, dir cid.Cid) ([]Entry, error) {
	n, err := merkledag.Fetch(f, dir)
	if err != nil {
		return nil, err
	}
	if !IsDirectory(n) {
		return nil, ErrNotDirectory
	}
	out := make([]Entry, 0, len(n.Links))
	for _, l := range n.Links {
		out = append(out, Entry{Name: l.Name, Cid: l.Cid, Size: l.Size})
	}
	return out, nil
}

// Resolve walks a slash-separated path from root and returns the CID it
// names. An empty path (or "/") resolves to root itself.
func Resolve(f merkledag.Fetcher, root cid.Cid, path string) (cid.Cid, error) {
	cur := root
	for _, seg := range strings.Split(path, "/") {
		if seg == "" {
			continue
		}
		n, err := merkledag.Fetch(f, cur)
		if err != nil {
			return cid.Cid{}, err
		}
		if !IsDirectory(n) {
			return cid.Cid{}, fmt.Errorf("%w: %q is not a directory", ErrNotDirectory, seg)
		}
		found := false
		for _, l := range n.Links {
			if l.Name == seg {
				cur = l.Cid
				found = true
				break
			}
		}
		if !found {
			return cid.Cid{}, fmt.Errorf("%w: %q", ErrNotFound, seg)
		}
	}
	return cur, nil
}

// ReadFile reassembles the content FileLeaves returns.
func ReadFile(f merkledag.Fetcher, root cid.Cid, path string) ([]byte, error) {
	leaves, err := FileLeaves(f, root, path)
	if err != nil {
		return nil, err
	}
	return bytes.Join(leaves, nil), nil
}

// FileLeaves is Walk with one worker, collecting the leaves as
// merkledag.Leaves does: slices of the verified blocks in link order
// (under an empty path, those of all a directory root's files).
func FileLeaves(f merkledag.Fetcher, root cid.Cid, path string) ([][]byte, error) {
	var leaves [][]byte
	err := Walk(context.Background(), nil, f, root, path, 1, merkledag.AppendLeaves(&leaves))
	return leaves, err
}

// Walk resolves path under root, reading only the directory blocks on
// it, and hands the DAG it names to visit through merkledag.Walk. An
// empty path walks root whole; a non-empty one that names a directory
// is refused at the walk's first visit, so the target is fetched once.
func Walk(ctx context.Context, src simtime.Source, f merkledag.Fetcher, root cid.Cid, path string, workers int, visit merkledag.Visitor) error {
	if strings.Trim(path, "/") == "" {
		return merkledag.Walk(ctx, src, f, root, workers, visit)
	}
	c, err := Resolve(f, root, path)
	if err != nil {
		return err
	}
	return merkledag.Walk(ctx, src, f, c, workers, func(k cid.Cid, n *merkledag.Node) error {
		if k.Equal(c) && IsDirectory(n) {
			return fmt.Errorf("%w: %q is a directory", ErrNotDirectory, path)
		}
		return visit(k, n)
	})
}

// AddTree imports a map of path -> content as a directory tree rooted
// at a single CID; intermediate directories are created as needed.
func AddTree(store block.Store, b *merkledag.Builder, files map[string][]byte) (cid.Cid, error) {
	type dirNode struct {
		files map[string]Entry
		dirs  map[string]*dirNode
	}
	newDir := func() *dirNode {
		return &dirNode{files: map[string]Entry{}, dirs: map[string]*dirNode{}}
	}
	root := newDir()
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		segs := strings.Split(strings.Trim(name, "/"), "/")
		cur := root
		for _, seg := range segs[:len(segs)-1] {
			if seg == "" {
				return cid.Cid{}, fmt.Errorf("%w: empty segment in %q", ErrBadName, name)
			}
			next := cur.dirs[seg]
			if next == nil {
				next = newDir()
				cur.dirs[seg] = next
			}
			cur = next
		}
		leaf := segs[len(segs)-1]
		c, err := b.Add(files[name])
		if err != nil {
			return cid.Cid{}, err
		}
		cur.files[leaf] = Entry{Name: leaf, Cid: c, Size: uint64(len(files[name]))}
	}
	var build func(d *dirNode) (cid.Cid, uint64, error)
	build = func(d *dirNode) (cid.Cid, uint64, error) {
		var entries []Entry
		var total uint64
		for _, e := range d.files {
			entries = append(entries, e)
			total += e.Size
		}
		for name, sub := range d.dirs {
			c, size, err := build(sub)
			if err != nil {
				return cid.Cid{}, 0, err
			}
			entries = append(entries, Entry{Name: name, Cid: c, Size: size})
			total += size
		}
		c, err := MakeDirectory(store, entries)
		return c, total, err
	}
	c, _, err := build(root)
	return c, err
}

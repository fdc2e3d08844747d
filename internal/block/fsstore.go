package block

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"repro/internal/cid"
	"repro/internal/multibase"
)

// FSStore is a filesystem-backed blockstore in the flatfs layout kubo
// uses: blocks live in two-character shard directories keyed by the
// tail of the base32 CID, one file per block. Get hashes what it read
// (the disk is a trust boundary), so on-disk corruption is detected by
// self-certification; Put relies on the block's constructor having
// hashed it.
//
// The store is lock-free: Put writes to a uniquely named temp file and
// renames it into place, so readers only ever observe a whole block
// file, and the filesystem itself orders concurrent same-CID renames
// (all of which carry identical bytes — the CID certifies them).
type FSStore struct {
	root string
	tmpN atomic.Uint64 // unique temp-file suffixes for concurrent Puts
}

// NewFSStore opens (creating if needed) a store rooted at dir and
// sweeps any *.tmp files a crashed writer left behind.
func NewFSStore(dir string) (*FSStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("block: fsstore: %w", err)
	}
	// Leftover temp files are half-written blocks from a crash between
	// write and rename; they are invisible to Get and safe to drop.
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.Contains(filepath.Base(path), ".tmp") {
			os.Remove(path)
		}
		return nil
	})
	return &FSStore{root: dir}, nil
}

// shardPath maps a CID to its shard directory and file path.
func (s *FSStore) shardPath(c cid.Cid) (dir, file string) {
	name := strings.ToUpper(multibase.MustEncode(multibase.Base32, c.Bytes())[1:])
	shard := name[len(name)-3 : len(name)-1] // next-to-last two chars, flatfs-style
	return filepath.Join(s.root, shard), filepath.Join(s.root, shard, name+".data")
}

// Put implements Store.
func (s *FSStore) Put(b Block) error {
	if err := b.checkPut(); err != nil {
		return err
	}
	dir, file := s.shardPath(b.Cid())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("block: fsstore: %w", err)
	}
	// Write-then-rename for atomicity against concurrent readers; the
	// counter suffix keeps concurrent Puts of the same CID from
	// clobbering each other's temp file mid-write.
	tmp := fmt.Sprintf("%s.tmp%d", file, s.tmpN.Add(1))
	if err := os.WriteFile(tmp, b.Data(), 0o644); err != nil {
		return fmt.Errorf("block: fsstore: %w", err)
	}
	return os.Rename(tmp, file)
}

// Get implements Store, verifying the block against its CID so on-disk
// corruption surfaces as an error rather than bad data.
func (s *FSStore) Get(c cid.Cid) (Block, error) {
	_, file := s.shardPath(c)
	data, err := os.ReadFile(file)
	if err != nil {
		if os.IsNotExist(err) {
			return Block{}, ErrNotFound
		}
		return Block{}, fmt.Errorf("block: fsstore: %w", err)
	}
	blk, err := NewWithCid(c, data)
	if err != nil {
		return Block{}, fmt.Errorf("block: fsstore: %s corrupt on disk: %w", c, err)
	}
	return blk, nil
}

// Has implements Store.
func (s *FSStore) Has(c cid.Cid) bool {
	_, file := s.shardPath(c)
	_, err := os.Stat(file)
	return err == nil
}

// Delete implements Store.
func (s *FSStore) Delete(c cid.Cid) {
	_, file := s.shardPath(c)
	os.Remove(file)
}

// Len implements Store by walking the shard directories.
func (s *FSStore) Len() int {
	n := 0
	filepath.Walk(s.root, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".data") {
			n++
		}
		return nil
	})
	return n
}

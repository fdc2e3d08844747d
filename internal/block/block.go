// Package block provides content-addressed blocks and blockstores. A
// block is an immutable (CID, bytes) pair that matched when it entered
// this process, so everything read back is self-certified (§2.1).
//
// A Block is a proof-carrying value. Outside this package the only way
// to obtain one with a defined CID is a constructor — New, NewOwned,
// NewWithCid — and every constructor hashes the bytes against the CID
// before it returns. Bytes are therefore hashed once, at the boundary
// where they enter the process (caller → Add, socket → node, disk →
// node); after that the Block owns them, nobody writes them, and a
// layer that is handed a Block checks which CID it carries instead of
// hashing it again.
//
// Three Store implementations cover the deployment spectrum:
//
//   - MemStore: unbounded in-memory map, the simulator default.
//   - LRUStore: byte-capped in-memory store with least-recently-used
//     eviction (an adapter over internal/lru) — the node store of a
//     fleet's edge gateways.
//   - PackStore (packstore.go): the pack-engine store — append-only
//     pack volumes, an in-memory CID index rebuilt from volume scans,
//     and background compaction reclaiming deleted space.
package block

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/cid"
	"repro/internal/lru"
	"repro/internal/multicodec"
)

// Block is an immutable content-addressed chunk of data.
type Block struct {
	cid  cid.Cid
	data []byte
	// hashed records that a constructor hashed data against cid. Only
	// the constructors set it and nothing clears it; the zero value and
	// a literal built inside this package (the tests' mismatched block)
	// carry false, and Put hashes those itself.
	hashed bool
}

// Errors returned by blockstores.
var (
	ErrNotFound     = errors.New("block: not found")
	ErrHashMismatch = errors.New("block: data does not match CID")
)

// New creates a block from a copy of data under the given codec,
// computing its CID. The caller keeps data and may reuse it.
func New(codec multicodec.Code, data []byte) Block {
	return NewOwned(codec, append([]byte(nil), data...))
}

// NewOwned is New without the copy: the block takes ownership of data,
// which the caller must neither write nor hand to another owner
// afterwards. It is the constructor for a buffer built to become the
// block — a node the DAG builder has just encoded.
func NewOwned(codec multicodec.Code, data []byte) Block {
	return Block{cid: cid.Sum(codec, data), data: data, hashed: true}
}

// NewWithCid wraps data with a caller-supplied CID, hashing data to
// verify the pair: the constructor for bytes that arrived from a peer
// or from disk. Like NewOwned it takes ownership of data — a decoded
// frame's BlockData, a buffer just read from a file — and does not
// copy it.
func NewWithCid(c cid.Cid, data []byte) (Block, error) {
	if !c.Verify(data) {
		return Block{}, ErrHashMismatch
	}
	return Block{cid: c, data: data, hashed: true}, nil
}

// Cid returns the block's content identifier. Because every constructor
// hashes, a Block whose Cid equals the CID a caller asked for is that
// content; comparing the two is the whole check.
func (b Block) Cid() cid.Cid { return b.cid }

// Data returns the block payload. The block owns it and it is never
// written after construction: callers must not modify it, and may alias
// it (a served frame, a decoded node) for as long as they like. Stores
// and the blocks of other nodes in the same process may share these
// bytes.
func (b Block) Data() []byte { return b.data }

// checkPut is the admission check of every Store.Put: a defined CID,
// and bytes that match it — by the constructor's hash when the block
// carries one, by hashing here otherwise.
func (b Block) checkPut() error {
	if !b.cid.Defined() {
		return fmt.Errorf("block: undefined CID")
	}
	if !b.hashed && !b.cid.Verify(b.data) {
		return ErrHashMismatch
	}
	return nil
}

// Size returns the payload length in bytes.
func (b Block) Size() int { return len(b.data) }

// Store is the interface all blockstores implement.
type Store interface {
	// Put stores a block whose bytes match its CID. A Block from a
	// constructor was hashed there and is not hashed again; any other
	// (the zero value) is hashed here and refused with ErrHashMismatch
	// or an undefined-CID error. An in-memory store keeps the block's
	// bytes, not a copy.
	Put(Block) error
	// Get returns the block for c or ErrNotFound.
	Get(c cid.Cid) (Block, error)
	// Has reports whether c is stored.
	Has(c cid.Cid) bool
	// Delete removes c if present.
	Delete(c cid.Cid)
	// Len returns the number of stored blocks.
	Len() int
}

// Pinner is the optional pinning surface of a Store. Pinned blocks
// refuse Delete and survive Clear — the "persistently available"
// gateway content of §3.4. MemStore and PackStore implement it;
// callers that only hold a Store obtain it via core.Node.Pinner, which
// degrades to a no-op for stores without pin support.
type Pinner interface {
	Pin(c cid.Cid)
	Unpin(c cid.Cid)
	Pinned(c cid.Cid) bool
}

// Clearer is the optional bulk-reset surface of a Store, used by
// experiment harnesses to drop unpinned content between iterations.
type Clearer interface {
	Clear()
}

// Interface checks.
var (
	_ Store   = (*MemStore)(nil)
	_ Pinner  = (*MemStore)(nil)
	_ Clearer = (*MemStore)(nil)
	_ Store   = (*LRUStore)(nil)
)

// MemStore is a thread-safe in-memory blockstore with optional pinning.
// Pinned blocks survive GC and represent the "IPFS node store" content
// manually uploaded to gateways (§3.4).
type MemStore struct {
	mu     sync.RWMutex
	blocks map[string]Block
	pins   map[string]bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{blocks: make(map[string]Block), pins: make(map[string]bool)}
}

// Put implements Store.
func (s *MemStore) Put(b Block) error {
	if err := b.checkPut(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks[b.cid.Key()] = b
	return nil
}

// Get implements Store.
func (s *MemStore) Get(c cid.Cid) (Block, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blocks[c.Key()]
	if !ok {
		return Block{}, ErrNotFound
	}
	return b, nil
}

// Has implements Store.
func (s *MemStore) Has(c cid.Cid) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.blocks[c.Key()]
	return ok
}

// Delete implements Store. Pinned blocks are not deleted.
func (s *MemStore) Delete(c cid.Cid) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pins[c.Key()] {
		return
	}
	delete(s.blocks, c.Key())
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blocks)
}

// Clear removes all unpinned blocks, used by experiment harnesses to
// reset a node between iterations.
func (s *MemStore) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key := range s.blocks {
		if !s.pins[key] {
			delete(s.blocks, key)
		}
	}
}

// Pin marks a block as pinned ("persistently available", §3.4).
func (s *MemStore) Pin(c cid.Cid) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pins[c.Key()] = true
}

// Unpin removes a pin.
func (s *MemStore) Unpin(c cid.Cid) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.pins, c.Key())
}

// Pinned reports whether c is pinned.
func (s *MemStore) Pinned(c cid.Cid) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.pins[c.Key()]
}

// TotalBytes returns the sum of stored block sizes.
func (s *MemStore) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.blocks {
		n += int64(len(b.data))
	}
	return n
}

// LRUStore is a bounded in-memory blockstore with least-recently-used
// eviction: the Store face of an lru.Cache keyed by CID.
// Blocks larger than the whole capacity are accepted and not kept.
type LRUStore struct {
	cache *lru.Cache[Block]
}

// NewLRUStore returns an LRU store bounded to capacityBytes.
func NewLRUStore(capacityBytes int64) *LRUStore {
	return &LRUStore{cache: lru.New[Block](capacityBytes)}
}

// Put implements Store, evicting least-recently-used blocks as needed.
func (s *LRUStore) Put(b Block) error {
	if err := b.checkPut(); err != nil {
		return err
	}
	s.cache.Put(b.cid.Key(), b, int64(b.Size()))
	return nil
}

// Get implements Store and refreshes recency.
func (s *LRUStore) Get(c cid.Cid) (Block, error) {
	b, ok := s.cache.Get(c.Key())
	if !ok {
		return Block{}, ErrNotFound
	}
	return b, nil
}

// Has implements Store without refreshing recency.
func (s *LRUStore) Has(c cid.Cid) bool { return s.cache.Has(c.Key()) }

// Delete implements Store.
func (s *LRUStore) Delete(c cid.Cid) { s.cache.Delete(c.Key()) }

// Len implements Store.
func (s *LRUStore) Len() int { return s.cache.Len() }

// UsedBytes returns the current cache occupancy.
func (s *LRUStore) UsedBytes() int64 { return s.cache.Used() }

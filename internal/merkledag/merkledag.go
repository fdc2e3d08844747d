// Package merkledag implements the Merkle DAG of §2.1: after chunking,
// IPFS builds a DAG whose root node combines the CIDs of its
// descendants to form the final content CID. Merkle DAGs permit
// multiple parents per node, enabling chunk de-duplication, and are
// location-agnostic: replicating or deleting a file somewhere in the
// network never changes the DAG.
//
// Nodes are encoded with a compact deterministic binary format standing
// in for dag-pb: it is self-describing via the CID codec and framed
// with unsigned varints.
package merkledag

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/block"
	"repro/internal/chunker"
	"repro/internal/cid"
	"repro/internal/multicodec"
	"repro/internal/varint"
)

// DefaultFanout is the maximum number of links per interior node,
// matching the go-ipfs balanced layout default.
const DefaultFanout = 174

// Link points from a DAG node to a child. Name is empty for the
// anonymous links of file DAGs and carries the entry name in
// directories (see internal/unixfs).
type Link struct {
	Cid  cid.Cid
	Size uint64 // the child's ContentSize, which Walk holds it to
	Name string
}

// Node is a Merkle DAG node: leaf nodes carry data, interior nodes carry
// links.
type Node struct {
	Links []Link
	Data  []byte
}

// Errors returned by this package. ErrInvalid is a verified block that
// contradicts its DAG: one that does not decode as a node, or a child
// whose content is not the size its parent's link declares. Its CID
// fixes those bytes, so no other copy, local or remote, can do better;
// a block for another CID is not ErrInvalid.
var (
	ErrMalformed = errors.New("merkledag: malformed node")
	ErrMissing   = errors.New("merkledag: block missing from store")
	ErrInvalid   = errors.New("merkledag: invalid DAG")
)

const (
	nodeMagic   = 0xDA
	leafMarker  = 0x00
	innerMarker = 0x01
)

// Encode serializes a node deterministically into one allocation of
// exactly the encoded size, so the builder can hand the buffer to
// block.NewOwned as it is.
func (n *Node) Encode() []byte {
	size := 2 + varint.Len(uint64(len(n.Data))) + len(n.Data)
	if len(n.Links) > 0 {
		size += varint.Len(uint64(len(n.Links)))
		for _, l := range n.Links {
			cl := len(l.Cid.Key())
			size += varint.Len(uint64(cl)) + cl + varint.Len(l.Size) + varint.Len(uint64(len(l.Name))) + len(l.Name)
		}
	}
	out := append(make([]byte, 0, size), nodeMagic)
	if len(n.Links) == 0 {
		out = append(out, leafMarker)
	} else {
		out = append(out, innerMarker)
		out = varint.Append(out, uint64(len(n.Links)))
		for _, l := range n.Links {
			raw := l.Cid.Key()
			out = varint.Append(out, uint64(len(raw)))
			out = append(out, raw...)
			out = varint.Append(out, l.Size)
			out = varint.Append(out, uint64(len(l.Name)))
			out = append(out, l.Name...)
		}
	}
	out = varint.Append(out, uint64(len(n.Data)))
	return append(out, n.Data...)
}

// DecodeNode parses a serialized node. It accepts only what Encode
// writes (no inner node without links), so a node has one CID.
func DecodeNode(raw []byte) (*Node, error) {
	if len(raw) < 2 || raw[0] != nodeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	marker := raw[1]
	raw = raw[2:]
	n := &Node{}
	switch marker {
	case leafMarker:
		dlen, used, err := varint.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		raw = raw[used:]
		if uint64(len(raw)) != dlen {
			return nil, fmt.Errorf("%w: data length mismatch", ErrMalformed)
		}
		n.Data = raw
		return n, nil
	case innerMarker:
		nlinks, used, err := varint.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		if nlinks == 0 {
			return nil, fmt.Errorf("%w: inner node without links", ErrMalformed)
		}
		raw = raw[used:]
		for i := uint64(0); i < nlinks; i++ {
			clen, used, err := varint.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("%w: link %d cid len: %v", ErrMalformed, i, err)
			}
			raw = raw[used:]
			if uint64(len(raw)) < clen {
				return nil, fmt.Errorf("%w: link %d truncated cid", ErrMalformed, i)
			}
			c, err := cid.FromBytes(raw[:clen])
			if err != nil {
				return nil, fmt.Errorf("%w: link %d: %v", ErrMalformed, i, err)
			}
			raw = raw[clen:]
			size, used, err := varint.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("%w: link %d size: %v", ErrMalformed, i, err)
			}
			raw = raw[used:]
			nlen, used, err := varint.Decode(raw)
			if err != nil {
				return nil, fmt.Errorf("%w: link %d name: %v", ErrMalformed, i, err)
			}
			raw = raw[used:]
			if uint64(len(raw)) < nlen {
				return nil, fmt.Errorf("%w: link %d truncated name", ErrMalformed, i)
			}
			name := string(raw[:nlen])
			raw = raw[nlen:]
			n.Links = append(n.Links, Link{Cid: c, Size: size, Name: name})
		}
		dlen, used, err := varint.Decode(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
		}
		raw = raw[used:]
		if uint64(len(raw)) != dlen {
			return nil, fmt.Errorf("%w: data length mismatch", ErrMalformed)
		}
		n.Data = raw
		return n, nil
	}
	return nil, fmt.Errorf("%w: unknown marker 0x%x", ErrMalformed, marker)
}

// ContentSize is the content the node declares: a leaf's Data, or the
// sum of an interior node's link Sizes (math.MaxUint64 if that
// overflows, a size no walk can deliver). An interior node's own Data,
// such as a UnixFS directory's marker, is never content.
func (n *Node) ContentSize() uint64 {
	if len(n.Links) == 0 {
		return uint64(len(n.Data))
	}
	var sum uint64
	for _, l := range n.Links {
		if sum += l.Size; sum < l.Size {
			return math.MaxUint64
		}
	}
	return sum
}

// Builder assembles balanced Merkle DAGs into a blockstore.
type Builder struct {
	store     block.Store
	chunkSize int
	fanout    int
}

// NewBuilder returns a DAG builder writing into store. chunkSize and
// fanout fall back to the network defaults (256 KiB, 174) when <= 0.
func NewBuilder(store block.Store, chunkSize, fanout int) *Builder {
	if chunkSize <= 0 {
		chunkSize = chunker.DefaultChunkSize
	}
	if fanout <= 0 {
		fanout = DefaultFanout
	}
	return &Builder{store: store, chunkSize: chunkSize, fanout: fanout}
}

// Add imports data: it chunks, builds the balanced DAG bottom-up, stores
// every block (step 1 of Figure 3) and returns the root CID.
func (b *Builder) Add(data []byte) (cid.Cid, error) {
	chunks := chunker.Split(data, b.chunkSize)

	// Layer 0: leaves.
	level := make([]Link, 0, len(chunks))
	for _, c := range chunks {
		leaf := &Node{Data: c}
		blk := block.NewOwned(multicodec.DagPB, leaf.Encode())
		if err := b.store.Put(blk); err != nil {
			return cid.Cid{}, fmt.Errorf("merkledag: storing leaf: %w", err)
		}
		level = append(level, Link{Cid: blk.Cid(), Size: uint64(len(c))})
	}

	// Single chunk: the leaf is the root.
	for len(level) > 1 {
		next := make([]Link, 0, (len(level)+b.fanout-1)/b.fanout)
		for off := 0; off < len(level); off += b.fanout {
			end := off + b.fanout
			if end > len(level) {
				end = len(level)
			}
			inner := &Node{Links: append([]Link(nil), level[off:end]...)}
			blk := block.NewOwned(multicodec.DagPB, inner.Encode())
			if err := b.store.Put(blk); err != nil {
				return cid.Cid{}, fmt.Errorf("merkledag: storing inner node: %w", err)
			}
			next = append(next, Link{Cid: blk.Cid(), Size: inner.ContentSize()})
		}
		level = next
	}
	return level[0].Cid, nil
}

// Fetcher retrieves blocks by CID; both local stores and the Bitswap
// session type satisfy it.
type Fetcher interface {
	Get(c cid.Cid) (block.Block, error)
}

// Fetch gets the block for c from f and decodes it: the one way a DAG
// node is read. A block.Block only comes from a constructor that hashed
// it, so the check is that f answered with the block asked for: a valid
// block for another CID, or the zero Block, is refused without hashing
// again. The Node's Data aliases the block and must not be written.
func Fetch(f Fetcher, c cid.Cid) (*Node, error) {
	blk, err := f.Get(c)
	return decodeFetched(c, blk, err)
}

// decodeFetched is Fetch past the Get.
func decodeFetched(c cid.Cid, blk block.Block, err error) (*Node, error) {
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrMissing, c, err)
	}
	if !blk.Cid().Equal(c) {
		return nil, fmt.Errorf("merkledag: block %s failed verification", c)
	}
	n, err := DecodeNode(blk.Data())
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrInvalid, c, err)
	}
	return n, nil
}

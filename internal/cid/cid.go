// Package cid implements Content Identifiers (§2.1, Figure 1), the base
// primitive that decouples a name for content from its storage location.
//
// A CIDv1 is <multibase prefix>(<cid-version varint> <multicodec varint>
// <multihash>). A CIDv0 is the bare base58btc encoding of a sha2-256
// multihash (it always starts with "Qm").
package cid

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"repro/internal/multibase"
	"repro/internal/multicodec"
	"repro/internal/multihash"
	"repro/internal/varint"
)

// Version is a CID version number. Two exist: v0 and v1.
type Version uint64

// Supported CID versions.
const (
	V0 Version = 0
	V1 Version = 1
)

// Cid is an immutable content identifier. The zero value is invalid;
// use New, Sum or Parse.
type Cid struct {
	version Version
	codec   multicodec.Code
	hash    multihash.Multihash
	// str caches the binary form: for v1 <version><codec><multihash>,
	// for v0 the bare multihash.
	str string
}

// MaxBytes bounds a binary CID (a sha2-512 CIDv1 is 68 bytes), and
// MaxTextLen its text in every base: base16, the least dense, spends two
// characters per byte after its prefix. Parse refuses longer text before
// decoding any of it, since base58 decoding is quadratic in the input.
const (
	MaxBytes   = 128
	MaxTextLen = 2*MaxBytes + 1
)

// Errors returned by this package.
var (
	ErrInvalid      = errors.New("cid: invalid")
	ErrV0Constraint = errors.New("cid: v0 requires dag-pb sha2-256")
)

// New builds a CID from parts. V0 CIDs are constrained to dag-pb +
// sha2-256 as on the live network.
func New(v Version, codec multicodec.Code, mh multihash.Multihash) (Cid, error) {
	if err := multihash.Validate(mh); err != nil {
		return Cid{}, err
	}
	switch v {
	case V0:
		dec, _ := multihash.Decode(mh)
		if codec != multicodec.DagPB || dec.Code != multicodec.SHA2_256 || dec.Length != 32 {
			return Cid{}, ErrV0Constraint
		}
		return Cid{version: V0, codec: multicodec.DagPB, hash: mh, str: string(mh)}, nil
	case V1:
		buf := varint.Encode(uint64(V1))
		buf = varint.Append(buf, uint64(codec))
		buf = append(buf, mh...)
		return Cid{version: V1, codec: codec, hash: mh, str: string(buf)}, nil
	}
	return Cid{}, fmt.Errorf("%w: version %d", ErrInvalid, v)
}

// Sum builds the CIDv1 of data under the given codec using the default
// sha2-256 multihash, the operation performed when content is imported
// (§3.1 step 1).
func Sum(codec multicodec.Code, data []byte) Cid {
	c, err := New(V1, codec, multihash.SumSHA256(data))
	if err != nil {
		panic(err) // unreachable: inputs are well-formed by construction
	}
	return c
}

// SumV0 builds a CIDv0 of data (dag-pb, sha2-256).
func SumV0(data []byte) Cid {
	c, err := New(V0, multicodec.DagPB, multihash.SumSHA256(data))
	if err != nil {
		panic(err)
	}
	return c
}

// Defined reports whether c holds a parsed CID (as opposed to the zero
// value).
func (c Cid) Defined() bool { return c.str != "" }

// Version returns the CID version.
func (c Cid) Version() Version { return c.version }

// Codec returns the content codec.
func (c Cid) Codec() multicodec.Code { return c.codec }

// Hash returns the multihash component.
func (c Cid) Hash() multihash.Multihash { return c.hash }

// Bytes returns the binary CID (for v0, the bare multihash).
func (c Cid) Bytes() []byte { return []byte(c.str) }

// Equal reports whether two CIDs are identical.
func (c Cid) Equal(o Cid) bool { return c.str == o.str }

// Key returns a string form usable as a map key.
func (c Cid) Key() string { return c.str }

// String renders the canonical text form: base58btc for v0, base32
// multibase for v1 (the "bafy..." strings of Figure 1).
func (c Cid) String() string {
	switch c.version {
	case V0:
		return multibase.MustEncode(multibase.Base58BTC, []byte(c.str))[1:] // v0 has no multibase prefix
	default:
		return multibase.MustEncode(multibase.Base32, []byte(c.str))
	}
}

// Encode renders the CID in the requested multibase (v1 only).
func (c Cid) Encode(base multibase.Encoding) (string, error) {
	if c.version == V0 {
		if base != multibase.Base58BTC {
			return "", fmt.Errorf("cid: v0 is always base58btc")
		}
		return c.String(), nil
	}
	return multibase.Encode(base, []byte(c.str))
}

// ToV1 returns the CIDv1 equivalent of a CIDv0 (same multihash, dag-pb).
func (c Cid) ToV1() Cid {
	if c.version == V1 {
		return c
	}
	v1, _ := New(V1, multicodec.DagPB, c.hash)
	return v1
}

// Verify reports whether data hashes to this CID — the self-verification
// step every retrieving peer performs (§3.1).
func (c Cid) Verify(data []byte) bool {
	return multihash.Verify(c.hash, data)
}

// Parse decodes a CID from its text form. "Qm..." strings parse as v0;
// anything else must be a valid multibase-wrapped v1.
func Parse(s string) (Cid, error) {
	if len(s) > MaxTextLen {
		return Cid{}, fmt.Errorf("%w: %d characters, longer than %d", ErrInvalid, len(s), MaxTextLen)
	}
	if len(s) == 46 && strings.HasPrefix(s, "Qm") {
		_, raw, err := multibase.Decode("z" + s)
		if err != nil {
			return Cid{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		return FromBytesV0(raw)
	}
	_, raw, err := multibase.Decode(s)
	if err != nil {
		return Cid{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return FromBytes(raw)
}

// FromBytes decodes a binary CIDv1 (or a bare multihash, which is
// interpreted as v0) of at most MaxBytes.
func FromBytes(raw []byte) (Cid, error) {
	if len(raw) > MaxBytes {
		return Cid{}, fmt.Errorf("%w: %d bytes, longer than %d", ErrInvalid, len(raw), MaxBytes)
	}
	if len(raw) == 34 && raw[0] == 0x12 && raw[1] == 0x20 {
		return FromBytesV0(raw)
	}
	v, n, err := varint.Decode(raw)
	if err != nil {
		return Cid{}, fmt.Errorf("%w: version: %v", ErrInvalid, err)
	}
	if Version(v) != V1 {
		return Cid{}, fmt.Errorf("%w: unsupported version %d", ErrInvalid, v)
	}
	codec, m, err := varint.Decode(raw[n:])
	if err != nil {
		return Cid{}, fmt.Errorf("%w: codec: %v", ErrInvalid, err)
	}
	mh := raw[n+m:]
	if err := multihash.Validate(mh); err != nil {
		return Cid{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	c := Cid{
		version: V1,
		codec:   multicodec.Code(codec),
		hash:    append(multihash.Multihash(nil), mh...),
	}
	c.str = string(raw)
	return c, nil
}

// FromBytesV0 decodes a bare sha2-256 multihash as a CIDv0.
func FromBytesV0(raw []byte) (Cid, error) {
	mh := append(multihash.Multihash(nil), raw...)
	return New(V0, multicodec.DagPB, mh)
}

// Less orders CIDs by their binary form (useful for deterministic
// iteration in tests and the DHT).
func Less(a, b Cid) bool { return a.str < b.str }

// SortKey returns the binary form used for DHT indexing: CIDs and
// PeerIDs "reside in a common 256-bit key space by using the SHA256
// hashes of their binary representations as indexing keys" (§2.3).
func (c Cid) SortKey() []byte { return []byte(c.str) }

// Explain returns a human-readable field breakdown mirroring Figure 1,
// used by the quickstart example and cmd/ipfs-node.
func (c Cid) Explain() string {
	var b bytes.Buffer
	dec, _ := multihash.Decode(c.hash)
	fmt.Fprintf(&b, "CID %s\n", c.String())
	fmt.Fprintf(&b, "  version:   %d\n", c.version)
	fmt.Fprintf(&b, "  codec:     %s (0x%x)\n", c.codec, uint64(c.codec))
	fmt.Fprintf(&b, "  hash func: %s (0x%x)\n", dec.Code, uint64(dec.Code))
	fmt.Fprintf(&b, "  hash len:  %d bytes\n", dec.Length)
	fmt.Fprintf(&b, "  digest:    %x\n", dec.Digest)
	return b.String()
}

// Package peer implements peer identity (§2.2): every peer is
// identified by a PeerID, the multihash of its public key. The PeerID is
// used when establishing a secure channel to verify that the key
// securing the channel is the key that identifies the peer.
package peer

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/cid"
	"repro/internal/multibase"
	"repro/internal/multihash"
)

// ID is a PeerID: the multihash of the peer's public key, stored as a
// string so it can key maps.
type ID string

// Identity is a peer's key pair plus its derived ID.
type Identity struct {
	ID      ID
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// Errors returned by this package.
var (
	ErrBadSignature = errors.New("peer: bad signature")
	ErrKeyMismatch  = errors.New("peer: public key does not match PeerID")
)

// NewIdentity generates a fresh ed25519 identity using the provided
// randomness source. Passing a seeded *rand.Rand makes network
// populations reproducible; pass nil for crypto-quality randomness.
func NewIdentity(rng *rand.Rand) (Identity, error) {
	if rng == nil {
		pub, priv, err := ed25519.GenerateKey(nil)
		if err != nil {
			return Identity{}, fmt.Errorf("peer: generating key: %w", err)
		}
		return Identity{ID: IDFromPublicKey(pub), Public: pub, private: priv}, nil
	}
	return IdentityFromSeed(DrawSeed(rng)), nil
}

// Seed is an identity's ed25519 private-key seed (RFC 8032).
type Seed [ed25519.SeedSize]byte

// DrawSeed draws an identity seed from rng, consuming exactly the draws
// NewIdentity(rng) consumes. A builder that derives many identities
// draws their seeds in order first and derives them later, on any
// goroutine, with IdentityFromSeed.
func DrawSeed(rng *rand.Rand) Seed {
	var seed Seed
	rngReader{rng}.Read(seed[:])
	return seed
}

// IdentityFromSeed derives the identity a seed determines.
func IdentityFromSeed(seed Seed) Identity {
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub := priv.Public().(ed25519.PublicKey)
	return Identity{ID: IDFromPublicKey(pub), Public: pub, private: priv}
}

// MustNewIdentity is NewIdentity for tests; it panics on error.
func MustNewIdentity(rng *rand.Rand) Identity {
	id, err := NewIdentity(rng)
	if err != nil {
		panic(err)
	}
	return id
}

type rngReader struct{ r *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.r.Intn(256))
	}
	return len(p), nil
}

// IDFromPublicKey derives the PeerID: the sha2-256 multihash of the
// public key bytes.
func IDFromPublicKey(pub ed25519.PublicKey) ID {
	return ID(multihash.SumSHA256(pub))
}

// Sign signs msg with the identity's private key.
func (id Identity) Sign(msg []byte) []byte {
	return ed25519.Sign(id.private, msg)
}

// Verify checks that sig over msg was produced by the holder of pub,
// and that pub is the key identified by expected.
func Verify(expected ID, pub ed25519.PublicKey, msg, sig []byte) error {
	if IDFromPublicKey(pub) != expected {
		return ErrKeyMismatch
	}
	if !ed25519.Verify(pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// Multihash returns the ID's underlying multihash bytes.
func (id ID) Multihash() multihash.Multihash { return multihash.Multihash(id) }

// String renders the ID in base58btc, the familiar "Qm..."-style form.
func (id ID) String() string {
	if id == "" {
		return "<nil-peer>"
	}
	return multibase.MustEncode(multibase.Base58BTC, []byte(id))[1:]
}

// Short returns a truncated form for logs.
func (id ID) Short() string {
	s := id.String()
	if len(s) > 8 {
		return s[:8]
	}
	return s
}

// ParseID decodes the base58btc text form of a PeerID. Text longer
// than any identifier's, cid.MaxTextLen, is refused before decoding.
func ParseID(s string) (ID, error) {
	if len(s) > cid.MaxTextLen {
		return "", fmt.Errorf("peer: parsing id: %d characters, longer than %d", len(s), cid.MaxTextLen)
	}
	_, raw, err := multibase.Decode("z" + s)
	if err != nil {
		return "", fmt.Errorf("peer: parsing id: %w", err)
	}
	if err := multihash.Validate(raw); err != nil {
		return "", fmt.Errorf("peer: id is not a multihash: %w", err)
	}
	return ID(raw), nil
}

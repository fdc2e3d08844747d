package peer

import (
	"crypto/ed25519"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cid"
)

func TestIdentityDeterministicWithSeed(t *testing.T) {
	a := MustNewIdentity(rand.New(rand.NewSource(7)))
	b := MustNewIdentity(rand.New(rand.NewSource(7)))
	if a.ID != b.ID {
		t.Error("same seed should yield the same identity")
	}
	c := MustNewIdentity(rand.New(rand.NewSource(8)))
	if a.ID == c.ID {
		t.Error("different seeds should yield different identities")
	}
}

// TestSeedSplitMatchesGenerateKey: drawing a seed and deriving from it
// later gives the key pair ed25519.GenerateKey makes from the same rng,
// and leaves the rng where GenerateKey leaves it — so a builder may draw
// every seed first and derive the identities anywhere afterwards.
func TestSeedSplitMatchesGenerateKey(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		viaKey, viaSeed := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		pub, priv, err := ed25519.GenerateKey(rngReader{viaKey})
		if err != nil {
			t.Fatal(err)
		}
		id := IdentityFromSeed(DrawSeed(viaSeed))
		if !pub.Equal(id.Public) || !priv.Equal(id.private) || id.ID != IDFromPublicKey(pub) {
			t.Fatalf("seed %d: IdentityFromSeed(DrawSeed) differs from GenerateKey", seed)
		}
		if a, b := viaKey.Int63(), viaSeed.Int63(); a != b {
			t.Fatalf("seed %d: DrawSeed left the rng at %d, GenerateKey at %d", seed, b, a)
		}
	}
}

func TestIDFromPublicKey(t *testing.T) {
	id := MustNewIdentity(rand.New(rand.NewSource(1)))
	if IDFromPublicKey(id.Public) != id.ID {
		t.Error("ID must be the multihash of the public key")
	}
}

func TestSignVerify(t *testing.T) {
	id := MustNewIdentity(rand.New(rand.NewSource(2)))
	msg := []byte("provider record")
	sig := id.Sign(msg)
	if err := Verify(id.ID, id.Public, msg, sig); err != nil {
		t.Errorf("Verify: %v", err)
	}
	// Tampered message.
	if err := Verify(id.ID, id.Public, []byte("other"), sig); err != ErrBadSignature {
		t.Errorf("tampered msg: err = %v, want ErrBadSignature", err)
	}
	// Wrong key for the claimed ID: channel security check of §2.2.
	other := MustNewIdentity(rand.New(rand.NewSource(3)))
	if err := Verify(id.ID, other.Public, msg, other.Sign(msg)); err != ErrKeyMismatch {
		t.Errorf("impostor key: err = %v, want ErrKeyMismatch", err)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	id := MustNewIdentity(rand.New(rand.NewSource(4)))
	s := id.ID.String()
	back, err := ParseID(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != id.ID {
		t.Errorf("ParseID(String()) = %s, want %s", back, id.ID)
	}
}

func TestParseIDErrors(t *testing.T) {
	if _, err := ParseID("not!base58"); err == nil {
		t.Error("invalid base58 should fail")
	}
	if _, err := ParseID("111"); err == nil {
		t.Error("non-multihash should fail")
	}
}

func TestShort(t *testing.T) {
	id := MustNewIdentity(rand.New(rand.NewSource(9)))
	if len(id.ID.Short()) != 8 {
		t.Errorf("Short() = %q", id.ID.Short())
	}
	if ID("").String() != "<nil-peer>" {
		t.Error("zero ID should print a placeholder")
	}
}

func TestQuickSignVerify(t *testing.T) {
	id := MustNewIdentity(rand.New(rand.NewSource(10)))
	f := func(msg []byte) bool {
		return Verify(id.ID, id.Public, msg, id.Sign(msg)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestParseIDRefusesOverlongText: a PeerID's text past cid.MaxTextLen
// is refused before the quadratic base58 decode runs.
func TestParseIDRefusesOverlongText(t *testing.T) {
	if _, err := ParseID(strings.Repeat("2", cid.MaxTextLen+1)); err == nil || !strings.Contains(err.Error(), "longer than") {
		t.Errorf("ParseID of %d characters = %v, want the length refusal", cid.MaxTextLen+1, err)
	}
}

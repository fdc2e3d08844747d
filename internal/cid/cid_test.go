package cid

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/multibase"
	"repro/internal/multicodec"
	"repro/internal/multihash"
)

func TestSumAndParseRoundTrip(t *testing.T) {
	c := Sum(multicodec.Raw, []byte("hello ipfs"))
	s := c.String()
	if !strings.HasPrefix(s, "b") {
		t.Errorf("CIDv1 string should be base32 'b'-prefixed, got %q", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Errorf("Parse(String()) = %s, want %s", back, c)
	}
}

func TestFigure1Layout(t *testing.T) {
	// Figure 1: v1 || dag-pb (0x70) || sha2-256 (0x12) || len 32 || digest.
	c := Sum(multicodec.DagPB, []byte("figure one"))
	raw := c.Bytes()
	if raw[0] != 0x01 {
		t.Errorf("version byte = 0x%x, want 0x01", raw[0])
	}
	if raw[1] != 0x70 {
		t.Errorf("codec byte = 0x%x, want 0x70 (dag-pb)", raw[1])
	}
	if raw[2] != 0x12 || raw[3] != 0x20 {
		t.Errorf("multihash header = 0x%x 0x%x, want 0x12 0x20", raw[2], raw[3])
	}
	if len(raw) != 4+32 {
		t.Errorf("total length = %d, want 36", len(raw))
	}
}

func TestV0(t *testing.T) {
	c := SumV0([]byte("old style"))
	s := c.String()
	if !strings.HasPrefix(s, "Qm") || len(s) != 46 {
		t.Errorf("CIDv0 string = %q, want Qm... of length 46", s)
	}
	back, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Error("v0 round trip failed")
	}
	if back.Version() != V0 || back.Codec() != multicodec.DagPB {
		t.Errorf("v0 parsed as version=%d codec=%v", back.Version(), back.Codec())
	}
}

func TestV0ToV1(t *testing.T) {
	v0 := SumV0([]byte("upgrade me"))
	v1 := v0.ToV1()
	if v1.Version() != V1 {
		t.Fatal("ToV1 did not upgrade")
	}
	if !multihash.Equal(v0.Hash(), v1.Hash()) {
		t.Error("ToV1 changed the multihash")
	}
	if !v1.ToV1().Equal(v1) {
		t.Error("ToV1 on v1 should be identity")
	}
}

func TestV0Constraint(t *testing.T) {
	mh, _ := multihash.Sum(multicodec.SHA2_512, []byte("x"))
	if _, err := New(V0, multicodec.DagPB, mh); err == nil {
		t.Error("v0 with sha2-512 should fail")
	}
	if _, err := New(V0, multicodec.Raw, multihash.SumSHA256([]byte("x"))); err == nil {
		t.Error("v0 with raw codec should fail")
	}
}

func TestVerifySelfCertification(t *testing.T) {
	data := []byte("self certifying")
	c := Sum(multicodec.Raw, data)
	if !c.Verify(data) {
		t.Error("Verify should accept original data")
	}
	if c.Verify([]byte("self certifying!")) {
		t.Error("Verify should reject altered data")
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "b", "zzz", "Qm000000000000000000000000000000000000000000", "b?not-base32"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestFromBytesRejectsBadVersion(t *testing.T) {
	raw := append([]byte{0x02, 0x55}, multihash.SumSHA256([]byte("x"))...)
	if _, err := FromBytes(raw); err == nil {
		t.Error("version 2 should be rejected")
	}
}

func TestEncodeBases(t *testing.T) {
	c := Sum(multicodec.Raw, []byte("bases"))
	for _, e := range []multibase.Encoding{multibase.Base32, multibase.Base58BTC, multibase.Base16, multibase.Base64URL} {
		s, err := c.Encode(e)
		if err != nil {
			t.Fatalf("Encode(%s): %v", e.Name(), err)
		}
		back, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%s form): %v", e.Name(), err)
		}
		if !back.Equal(c) {
			t.Errorf("%s round trip failed", e.Name())
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := Sum(multicodec.Raw, []byte("same"))
	b := Sum(multicodec.Raw, []byte("same"))
	if !a.Equal(b) {
		t.Error("same content must produce the same CID")
	}
	cDiff := Sum(multicodec.DagPB, []byte("same"))
	if a.Equal(cDiff) {
		t.Error("different codec must change the CID")
	}
}

func TestExplainMentionsFields(t *testing.T) {
	out := Sum(multicodec.DagPB, []byte("explain")).Explain()
	for _, want := range []string{"version:", "dag-pb", "sha2-256", "32 bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain() missing %q:\n%s", want, out)
		}
	}
}

func TestQuickRoundTripBinary(t *testing.T) {
	f := func(data []byte) bool {
		c := Sum(multicodec.Raw, data)
		back, err := FromBytes(c.Bytes())
		return err == nil && back.Equal(c) && back.Verify(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		c := Sum(multicodec.DagPB, data)
		back, err := Parse(c.String())
		return err == nil && back.Equal(c)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSortKeyDistinct(t *testing.T) {
	a := Sum(multicodec.Raw, []byte("a"))
	b := Sum(multicodec.Raw, []byte("b"))
	if bytes.Equal(a.SortKey(), b.SortKey()) {
		t.Error("distinct CIDs must have distinct sort keys")
	}
	if Less(a, b) == Less(b, a) {
		t.Error("Less must totally order distinct CIDs")
	}
}

// TestParseRefusesOverlongText: text past MaxTextLen is refused before
// any of it is decoded, while the longest real CID, a sha2-512 CIDv1 in
// base16, still parses.
func TestParseRefusesOverlongText(t *testing.T) {
	if _, err := Parse("z" + strings.Repeat("2", MaxTextLen)); !errors.Is(err, ErrInvalid) {
		t.Errorf("Parse of %d characters = %v, want ErrInvalid", MaxTextLen+1, err)
	}
	mh, err := multihash.Sum(multicodec.SHA2_512, []byte("long digest"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(V1, multicodec.Raw, mh)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Encode(multibase.Base16)
	if err != nil {
		t.Fatal(err)
	}
	if back, err := Parse(s); err != nil || !back.Equal(c) {
		t.Errorf("Parse of a base16 sha2-512 CIDv1 (%d characters) = %v, %v", len(s), back, err)
	}
	if _, err := FromBytes(make([]byte, MaxBytes+1)); !errors.Is(err, ErrInvalid) {
		t.Errorf("FromBytes of %d bytes = %v, want ErrInvalid", MaxBytes+1, err)
	}
}

// FuzzCidParse: Parse never panics, and whatever it accepts comes back
// equal through its text form and through its binary form.
func FuzzCidParse(f *testing.F) {
	data := []byte("fuzz seed")
	mh512, _ := multihash.Sum(multicodec.SHA2_512, data)
	v1512, _ := New(V1, multicodec.Raw, mh512)
	for _, c := range []Cid{Sum(multicodec.Raw, data), Sum(multicodec.DagPB, data), SumV0(data), v1512} {
		f.Add(c.String())
		for _, e := range []multibase.Encoding{multibase.Base16, multibase.Base32Up, multibase.Base58BTC, multibase.Base64, multibase.Base64URL} {
			if s, err := c.Encode(e); err == nil {
				f.Add(s)
			}
		}
	}
	for _, s := range []string{"", "b", "zzz", "Qm000000000000000000000000000000000000000000", "b?not-base32"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		c, err := Parse(s)
		if err != nil {
			return
		}
		if back, err := Parse(c.String()); err != nil || !back.Equal(c) {
			t.Fatalf("Parse(%q) = %x, but Parse of its String %q = %x, %v", s, c.Bytes(), c.String(), back.Bytes(), err)
		}
		if back, err := FromBytes(c.Bytes()); err != nil || !back.Equal(c) {
			t.Fatalf("Parse(%q) = %x, but FromBytes of its Bytes = %x, %v", s, c.Bytes(), back.Bytes(), err)
		}
	})
}

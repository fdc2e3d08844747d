package multibase

import (
	"bytes"
	"testing"
	"testing/quick"
)

var allEncodings = []Encoding{Identity, Base16, Base32, Base32Up, Base58BTC, Base64, Base64URL}

func TestRoundTripAllEncodings(t *testing.T) {
	payloads := [][]byte{
		nil,
		{0},
		{0, 0, 1},
		[]byte("hello multibase"),
		bytes.Repeat([]byte{0xff}, 40),
	}
	for _, e := range allEncodings {
		for _, p := range payloads {
			s, err := Encode(e, p)
			if err != nil {
				t.Fatalf("%s: Encode: %v", e.Name(), err)
			}
			ge, gp, err := Decode(s)
			if err != nil {
				t.Fatalf("%s: Decode(%q): %v", e.Name(), s, err)
			}
			if ge != e {
				t.Errorf("%s: decoded encoding = %s", e.Name(), ge.Name())
			}
			if !bytes.Equal(gp, p) && !(len(gp) == 0 && len(p) == 0) {
				t.Errorf("%s: round trip %x -> %x", e.Name(), p, gp)
			}
		}
	}
}

func TestBase58KnownVectors(t *testing.T) {
	// Vectors from the Bitcoin base58 test suite.
	cases := []struct {
		hexIn string
		want  string
	}{
		{"", ""},
		{"61", "2g"},
		{"626262", "a3gV"},
		{"636363", "aPEr"},
		{"00010966776006953d5567439e5e39f86a0d273beed61967f6", "16UwLL9Risc3QfPqBUvKofHmBQ7wMtjvM"},
	}
	for _, c := range cases {
		in := make([]byte, len(c.hexIn)/2)
		for i := 0; i < len(in); i++ {
			var b byte
			for j := 0; j < 2; j++ {
				ch := c.hexIn[i*2+j]
				switch {
				case ch >= '0' && ch <= '9':
					b = b<<4 | (ch - '0')
				case ch >= 'a' && ch <= 'f':
					b = b<<4 | (ch - 'a' + 10)
				}
			}
			in[i] = b
		}
		if got := base58Encode(in); got != c.want {
			t.Errorf("base58Encode(%s) = %q, want %q", c.hexIn, got, c.want)
		}
		back, err := base58Decode(c.want)
		if err != nil {
			t.Fatalf("base58Decode(%q): %v", c.want, err)
		}
		if !bytes.Equal(back, in) {
			t.Errorf("base58Decode(%q) = %x, want %x", c.want, back, in)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(""); err == nil {
		t.Error("Decode(\"\") should fail")
	}
	if _, _, err := Decode("?abc"); err == nil {
		t.Error("unknown prefix should fail")
	}
	if _, _, err := Decode("z0OIl"); err == nil {
		t.Error("invalid base58 characters should fail")
	}
	if _, _, err := Decode("fzz"); err == nil {
		t.Error("invalid hex should fail")
	}
}

func TestBase32MatchesPaperStyle(t *testing.T) {
	// CIDv1 strings must be lowercase base32 with a 'b' prefix.
	s := MustEncode(Base32, []byte{1, 0x70, 0x12, 0x20})
	if s[0] != 'b' {
		t.Errorf("prefix = %q, want 'b'", s[0])
	}
	for _, r := range s[1:] {
		if r >= 'A' && r <= 'Z' {
			t.Errorf("base32 output contains uppercase: %q", s)
		}
	}
}

func TestQuickBase58RoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		out, err := base58Decode(base58Encode(data))
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(out) == 0
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAllRoundTrip(t *testing.T) {
	f := func(data []byte, pick uint8) bool {
		e := allEncodings[int(pick)%len(allEncodings)]
		s, err := Encode(e, data)
		if err != nil {
			return false
		}
		_, out, err := Decode(s)
		if err != nil {
			return false
		}
		if len(data) == 0 {
			return len(out) == 0
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzMultibaseDecode feeds arbitrary strings to Decode: it never
// panics, and whatever it accepts re-encodes to a string that decodes
// to the same encoding and payload and re-encodes unchanged.
func FuzzMultibaseDecode(f *testing.F) {
	for _, e := range allEncodings {
		for _, p := range [][]byte{nil, {0}, {0, 0, 1}, []byte("hello multibase"), bytes.Repeat([]byte{0xff}, 40)} {
			f.Add(MustEncode(e, p))
		}
	}
	for _, s := range []string{"", "?abc", "z0OIl", "fzz", "z16UwLL9Risc3QfPqBUvKofHmBQ7wMtjvM", "bAFY", "fABCD", "mAB==", "uA-_"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, data, err := Decode(s)
		if err != nil {
			return
		}
		enc, err := Encode(e, data)
		if err != nil {
			t.Fatalf("Decode(%q) gave encoding %s, which Encode refuses: %v", s, e.Name(), err)
		}
		e2, back, err := Decode(enc)
		if err != nil || e2 != e || !bytes.Equal(back, data) {
			t.Fatalf("Decode(%q) = %s %x, but its encoding %q decodes to %s %x, %v", s, e.Name(), data, enc, e2.Name(), back, err)
		}
		if again := MustEncode(e2, back); again != enc {
			t.Fatalf("%q re-encodes to %q", enc, again)
		}
	})
}

package multibase

import (
	"bytes"
	"fmt"
	"math/big"
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

// refBase58Encode and refBase58Decode are the math/big conversion the
// limb arithmetic replaced, kept as its reference: one DivMod per
// output digit.
func refBase58Encode(data []byte) string {
	zeros := 0
	for zeros < len(data) && data[zeros] == 0 {
		zeros++
	}
	x := new(big.Int).SetBytes(data)
	radix := big.NewInt(58)
	mod := new(big.Int)
	var out []byte
	for x.Sign() > 0 {
		x.DivMod(x, radix, mod)
		out = append(out, btcAlphabet[mod.Int64()])
	}
	for i := 0; i < zeros; i++ {
		out = append(out, '1')
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return string(out)
}

func refBase58Decode(s string) ([]byte, error) {
	zeros := 0
	for zeros < len(s) && s[zeros] == '1' {
		zeros++
	}
	x := new(big.Int)
	radix := big.NewInt(58)
	for i := zeros; i < len(s); i++ {
		d := btcIndex[s[i]]
		if d < 0 {
			return nil, fmt.Errorf("invalid base58 character %q", s[i])
		}
		x.Mul(x, radix)
		x.Add(x, big.NewInt(int64(d)))
	}
	body := x.Bytes()
	out := make([]byte, zeros+len(body))
	copy(out[zeros:], body)
	return out, nil
}

// FuzzBase58 holds the limb arithmetic to the math/big reference: the
// same text for any bytes, the same bytes or the same error for the
// text, and decode inverts encode.
func FuzzBase58(f *testing.F) {
	for _, p := range [][]byte{nil, {0}, {0, 0, 1}, {0xff}, []byte("hello multibase"), bytes.Repeat([]byte{0xff}, 40), bytes.Repeat([]byte{0}, 5)} {
		f.Add(p)
	}
	f.Add([]byte("16UwLL9Risc3QfPqBUvKofHmBQ7wMtjvM"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 { // both conversions are quadratic; identifiers are far shorter
			return
		}
		enc := base58Encode(data)
		if want := refBase58Encode(data); enc != want {
			t.Fatalf("base58Encode(%x) = %q, reference %q", data, enc, want)
		}
		if back, err := base58Decode(enc); err != nil || !bytes.Equal(back, data) {
			t.Fatalf("base58Decode(%q) = %x, %v; want %x", enc, back, err, data)
		}
		// The same bytes read as text: most are not base58.
		got, err := base58Decode(string(data))
		want, werr := refBase58Decode(string(data))
		if fmt.Sprint(err) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
			t.Fatalf("base58Decode(%q) = %x, %v; reference %x, %v", data, got, err, want, werr)
		}
	})
}

// BenchmarkBase58PeerID is one peer ID's trip to text and back, by the
// limb arithmetic and by the math/big reference.
func BenchmarkBase58PeerID(b *testing.B) {
	id := append([]byte{0x12, 0x20}, bytes.Repeat([]byte{0xa7, 0x3c}, 16)...)
	text := base58Encode(id)
	for _, impl := range []struct {
		name string
		enc  func([]byte) string
		dec  func(string) ([]byte, error)
	}{{"limbs", base58Encode, base58Decode}, {"big", refBase58Encode, refBase58Decode}} {
		b.Run(impl.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.enc(id)
			}
		})
		b.Run(impl.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.dec(text)
			}
		})
	}
}

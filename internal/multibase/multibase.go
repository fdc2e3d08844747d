// Package multibase implements the self-describing base-encoding scheme
// used by CIDs (§2.1, Figure 1 of the paper). A multibase string is a
// single prefix character identifying the encoding followed by the
// encoded payload. The paper's example CID uses base32 ("b").
package multibase

import (
	"encoding/base32"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"strings"
)

// Encoding identifies a supported multibase encoding by its prefix rune.
type Encoding rune

// Supported encodings. The live network supports 24; we implement the
// ones IPFS actually emits plus hex for debugging.
const (
	Identity  Encoding = '\x00' // raw binary passthrough
	Base16    Encoding = 'f'    // lowercase hex
	Base32    Encoding = 'b'    // RFC4648 lowercase, no padding (CIDv1 default)
	Base32Up  Encoding = 'B'    // RFC4648 uppercase, no padding
	Base58BTC Encoding = 'z'    // Bitcoin alphabet (CIDv0, PeerIDs)
	Base64    Encoding = 'm'    // RFC4648, no padding
	Base64URL Encoding = 'u'    // RFC4648 URL-safe, no padding
)

var (
	base32Lower = base32.StdEncoding.WithPadding(base32.NoPadding)
	base32Upper = base32.StdEncoding.WithPadding(base32.NoPadding)
	base64Std   = base64.StdEncoding.WithPadding(base64.NoPadding)
	base64URL   = base64.URLEncoding.WithPadding(base64.NoPadding)
)

const btcAlphabet = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"

var btcIndex = func() [256]int8 {
	var idx [256]int8
	for i := range idx {
		idx[i] = -1
	}
	for i := 0; i < len(btcAlphabet); i++ {
		idx[btcAlphabet[i]] = int8(i)
	}
	return idx
}()

// Name returns the canonical multibase name of the encoding.
func (e Encoding) Name() string {
	switch e {
	case Identity:
		return "identity"
	case Base16:
		return "base16"
	case Base32:
		return "base32"
	case Base32Up:
		return "base32upper"
	case Base58BTC:
		return "base58btc"
	case Base64:
		return "base64"
	case Base64URL:
		return "base64url"
	}
	return fmt.Sprintf("unknown(%q)", rune(e))
}

// Encode encodes data with the given encoding, including the prefix rune.
func Encode(e Encoding, data []byte) (string, error) {
	switch e {
	case Identity:
		return "\x00" + string(data), nil
	case Base16:
		return "f" + hex.EncodeToString(data), nil
	case Base32:
		return "b" + strings.ToLower(base32Lower.EncodeToString(data)), nil
	case Base32Up:
		return "B" + base32Upper.EncodeToString(data), nil
	case Base58BTC:
		return "z" + base58Encode(data), nil
	case Base64:
		return "m" + base64Std.EncodeToString(data), nil
	case Base64URL:
		return "u" + base64URL.EncodeToString(data), nil
	}
	return "", fmt.Errorf("multibase: unsupported encoding %q", rune(e))
}

// MustEncode is Encode for known-good encodings; it panics on error.
func MustEncode(e Encoding, data []byte) string {
	s, err := Encode(e, data)
	if err != nil {
		panic(err)
	}
	return s
}

// Decode parses a multibase string, returning the encoding indicated by
// its prefix and the decoded payload.
func Decode(s string) (Encoding, []byte, error) {
	if len(s) == 0 {
		return 0, nil, fmt.Errorf("multibase: empty string")
	}
	e := Encoding(s[0])
	rest := s[1:]
	switch e {
	case Identity:
		return e, []byte(rest), nil
	case Base16:
		b, err := hex.DecodeString(rest)
		return e, b, wrapErr(err)
	case Base32:
		b, err := base32Lower.DecodeString(strings.ToUpper(rest))
		return e, b, wrapErr(err)
	case Base32Up:
		b, err := base32Upper.DecodeString(rest)
		return e, b, wrapErr(err)
	case Base58BTC:
		b, err := base58Decode(rest)
		return e, b, wrapErr(err)
	case Base64:
		b, err := base64Std.DecodeString(rest)
		return e, b, wrapErr(err)
	case Base64URL:
		b, err := base64URL.DecodeString(rest)
		return e, b, wrapErr(err)
	}
	return 0, nil, fmt.Errorf("multibase: unknown prefix %q", s[0])
}

func wrapErr(err error) error {
	if err != nil {
		return fmt.Errorf("multibase: %w", err)
	}
	return nil
}

// base58 is arithmetic on fixed-width limbs: the number lives in
// uint32 limbs, least significant first, of five base-58 digits each
// when encoding (58^5 < 2^30) and of 32 bits each when decoding. Every
// step multiplies all limbs by at most 2^32 or 58^5 and adds a carry,
// so each product fits a uint64 and no math/big is needed.
const (
	b58Digits = 5
	b58Limb   = 58 * 58 * 58 * 58 * 58 // 58^b58Digits
)

// base58Encode renders data in the Bitcoin alphabet, each leading zero
// byte as a leading '1'.
func base58Encode(data []byte) string {
	zeros := 0
	for zeros < len(data) && data[zeros] == 0 {
		zeros++
	}
	var buf [16]uint32 // a 34-byte peer ID needs 10 limbs
	limbs := buf[:0]
	for rest := data[zeros:]; len(rest) > 0; {
		// The first word takes the odd bytes, so the rest are whole.
		k := (len(rest)-1)%4 + 1
		var carry uint64
		for _, b := range rest[:k] {
			carry = carry<<8 | uint64(b)
		}
		rest = rest[k:]
		for i, l := range limbs {
			t := uint64(l)<<(8*k) + carry
			limbs[i], carry = uint32(t%b58Limb), t/b58Limb
		}
		for ; carry > 0; carry /= b58Limb {
			limbs = append(limbs, uint32(carry%b58Limb))
		}
	}
	var obuf [64]byte
	out := obuf[:0]
	if n := zeros + len(limbs)*b58Digits; n > len(obuf) {
		out = make([]byte, 0, n)
	}
	for range zeros {
		out = append(out, '1')
	}
	for i := len(limbs) - 1; i >= 0; i-- {
		var d [b58Digits]byte
		for j, l := b58Digits-1, limbs[i]; j >= 0; j, l = j-1, l/58 {
			d[j] = btcAlphabet[l%58]
		}
		top := 0
		if i == len(limbs)-1 { // the number's first digit is not a zero
			for d[top] == '1' {
				top++
			}
		}
		out = append(out, d[top:]...)
	}
	return string(out)
}

// base58Decode inverts base58Encode.
func base58Decode(s string) ([]byte, error) {
	zeros := 0
	for zeros < len(s) && s[zeros] == '1' {
		zeros++
	}
	var buf [16]uint32
	limbs := buf[:0]
	for rest := s[zeros:]; len(rest) > 0; {
		k := (len(rest)-1)%b58Digits + 1
		var carry, mul uint64 = 0, 1
		for i := 0; i < k; i++ {
			d := btcIndex[rest[i]]
			if d < 0 {
				return nil, fmt.Errorf("invalid base58 character %q", rest[i])
			}
			carry, mul = carry*58+uint64(d), mul*58
		}
		rest = rest[k:]
		for i, l := range limbs {
			t := uint64(l)*mul + carry
			limbs[i], carry = uint32(t), t>>32
		}
		for ; carry > 0; carry >>= 32 {
			limbs = append(limbs, uint32(carry))
		}
	}
	body := 4 * len(limbs)
	if len(limbs) > 0 { // the number's first byte is not a zero
		for top := limbs[len(limbs)-1]; top < 1<<24; top <<= 8 {
			body--
		}
	}
	out := make([]byte, zeros+body)
	for i, l := range limbs {
		for j := 0; j < 4 && 4*i+j < body; j, l = j+1, l>>8 {
			out[len(out)-1-4*i-j] = byte(l)
		}
	}
	return out, nil
}

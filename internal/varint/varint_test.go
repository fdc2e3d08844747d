package varint

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 255, 256, 16383, 16384, 1<<32 - 1, 1 << 62, math.MaxInt64}
	for _, v := range cases {
		enc := Encode(v)
		got, n, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(%d): %v", v, err)
		}
		if got != v || n != len(enc) {
			t.Errorf("Decode(Encode(%d)) = %d (n=%d), want %d (n=%d)", v, got, n, v, len(enc))
		}
		if n != Len(v) {
			t.Errorf("Len(%d) = %d, want %d", v, Len(v), n)
		}
	}
}

func TestDecodeRejectsNonMinimal(t *testing.T) {
	// 0x80 0x00 is a non-minimal encoding of 0.
	if _, _, err := Decode([]byte{0x80, 0x00}); err != ErrNotMinimal {
		t.Errorf("non-minimal zero: err = %v, want ErrNotMinimal", err)
	}
	// 0xff 0x00 is a non-minimal encoding of 127.
	if _, _, err := Decode([]byte{0xff, 0x00}); err != ErrNotMinimal {
		t.Errorf("non-minimal 127: err = %v, want ErrNotMinimal", err)
	}
}

func TestDecodeRejectsTooLong(t *testing.T) {
	// A run of continuation bytes trips the overflow check at the ninth
	// byte, before the length check can fire.
	buf := bytes.Repeat([]byte{0xff}, 10)
	if _, _, err := Decode(buf); err != ErrOverflow && err != ErrMaxLenExceed {
		t.Errorf("10-byte varint: err = %v, want ErrOverflow or ErrMaxLenExceed", err)
	}
}

func TestDecodeRejectsOverflow(t *testing.T) {
	// Nine bytes where the ninth has the high bits set beyond 63 bits.
	buf := append(bytes.Repeat([]byte{0xff}, 8), 0x80)
	if _, _, err := Decode(buf); err != ErrOverflow {
		t.Errorf("overflow: err = %v, want ErrOverflow", err)
	}
}

func TestDecodeUnderflow(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrUnderflow {
		t.Errorf("empty: err = %v, want ErrUnderflow", err)
	}
	if _, _, err := Decode([]byte{0x80}); err != ErrUnderflow {
		t.Errorf("truncated: err = %v, want ErrUnderflow", err)
	}
}

func TestReadUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 300, 1 << 40} {
		r := bytes.NewReader(Encode(v))
		got, err := ReadUvarint(r)
		if err != nil {
			t.Fatalf("ReadUvarint(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("ReadUvarint = %d, want %d", got, v)
		}
	}
}

func TestReadUvarintTruncated(t *testing.T) {
	r := bytes.NewReader([]byte{0x80})
	if _, err := ReadUvarint(r); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated stream: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		v &= math.MaxInt64 // spec limits varints to 63 bits
		got, n, err := Decode(Encode(v))
		return err == nil && got == v && n == Len(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickAppendMatchesEncode(t *testing.T) {
	f := func(prefix []byte, v uint64) bool {
		v &= math.MaxInt64
		out := Append(append([]byte(nil), prefix...), v)
		return bytes.Equal(out[:len(prefix)], prefix) && bytes.Equal(out[len(prefix):], Encode(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzVarintDecode: whatever Decode accepts is the minimal encoding of
// its value, so Append reproduces exactly the bytes it consumed.
func FuzzVarintDecode(f *testing.F) {
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 16383, 16384, 1<<32 - 1, 1 << 62, math.MaxInt64} {
		f.Add(Encode(v))
	}
	for _, b := range [][]byte{{0x80, 0x00}, {0xff, 0x00}, {0x80}, bytes.Repeat([]byte{0xff}, 10), append(bytes.Repeat([]byte{0xff}, 8), 0x80)} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		v, n, err := Decode(buf)
		if err != nil {
			return
		}
		if enc := Append(nil, v); !bytes.Equal(enc, buf[:n]) {
			t.Fatalf("Decode(%x) = %d over %d bytes, but Append gives %x", buf, v, n, enc)
		}
	})
}

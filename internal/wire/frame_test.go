package wire

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/multiaddr"
)

const blockSize = 256 << 10

// patternBlock is a block-sized payload with no short period, so a
// misplaced or repeated chunk cannot go unnoticed.
func patternBlock() []byte {
	big := make([]byte, blockSize)
	for i := range big {
		big[i] = byte(i*7 + i>>8)
	}
	return big
}

// frameTable is the messages the frame tests share: the shapes the
// older table tests use (a message with every field set, the minimal
// one, an error, a batched ADD_PROVIDER, a gossip push), a request, and
// a block-sized TBlock with fields on both sides of the payload. The
// first seven are the ones TestFrameBytesUnchanged pins; the rest give
// every remaining message type one frame.
func frameTable() []Message {
	p := testIdentity(4)
	msgs := []Message{
		sampleMessage(),
		{Type: TPing},
		ErrorMessage("x"),
		{Type: TAddProvider, Key: []byte{0x01}, Keys: [][]byte{{0x02}, {0x03}}},
		{Type: TGossip, Records: []ProviderEntry{
			{Key: []byte{0x01, 0x55, 0x12, 0x02, 0x01},
				Provider:  PeerInfo{ID: p.ID, Addrs: []multiaddr.Multiaddr{multiaddr.MustParse("/ip4/9.9.9.9/tcp/4001")}},
				Published: time.Unix(0, 1_700_000_000_000_000_000)},
			{Key: []byte{0x01, 0x55, 0x12, 0x02, 0x02},
				Provider:  PeerInfo{ID: p.ID},
				Published: time.Unix(0, 1_700_000_001_000_000_000)},
		}},
		{Type: TWantBlock, Key: []byte{0x01, 0x70, 0x12, 0x02, 0xaa, 0xbb}},
		{Type: TBlock, Key: []byte{0x01, 0x70}, BlockData: patternBlock(), ErrMsg: "tail", Keys: [][]byte{{0x09}}},
	}
	seen := make(map[Type]bool)
	for _, m := range msgs {
		seen[m.Type] = true
	}
	for _, ranges := range [][2]Type{{TPing, TGossip}, {TAck, TError}} {
		for ty := ranges[0]; ty <= ranges[1]; ty++ {
			if !seen[ty] {
				msgs = append(msgs, Message{Type: ty, Key: []byte{0x01, 0x70, byte(ty)}, BlockData: []byte{byte(ty)},
					Peers: []PeerInfo{{ID: p.ID}}})
			}
		}
	}
	return msgs
}

func writeFrames(t testing.TB, w io.Writer, msgs []Message) {
	t.Helper()
	for i, m := range msgs {
		if err := WriteFrame(w, m); err != nil {
			t.Fatalf("frame %d (%s): write: %v", i, m.Type, err)
		}
	}
}

func readFrames(t testing.TB, r FrameReader, want []Message) {
	t.Helper()
	for i, m := range want {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d (%s): read: %v", i, m.Type, err)
		}
		if !messagesEqual(m, got) {
			t.Fatalf("frame %d (%s): round trip mismatch", i, m.Type)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// chunkReader returns at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// TestFrameRoundTripAnyReadSize: the body is read with io.ReadFull, so
// how the stream happens to be cut into Reads — a byte at a time, in
// odd chunks, in buffer-sized ones, or all at once — must not matter.
func TestFrameRoundTripAnyReadSize(t *testing.T) {
	msgs := frameTable()
	var stream bytes.Buffer
	writeFrames(t, &stream, msgs)
	readers := map[string]func(io.Reader) io.Reader{
		"1":             iotest.OneByteReader,
		"7":             func(r io.Reader) io.Reader { return chunkReader{r, 7} },
		"4096":          func(r io.Reader) io.Reader { return chunkReader{r, 4096} },
		"half":          iotest.HalfReader,
		"data-with-eof": iotest.DataErrReader,
	}
	for name, wrap := range readers {
		t.Run(name, func(t *testing.T) {
			readFrames(t, bufio.NewReader(wrap(bytes.NewReader(stream.Bytes()))), msgs)
		})
	}
	t.Run("unbuffered", func(t *testing.T) {
		readFrames(t, bytes.NewReader(stream.Bytes()), msgs)
	})
}

// TestFrameRoundTripLoopbackConn runs the table over a real TCP
// connection, where a block goes out as one writev and arrives in
// however many segments the kernel delivers.
func TestFrameRoundTripLoopbackConn(t *testing.T) {
	msgs := frameTable()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	werr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			werr <- err
			return
		}
		defer c.Close()
		for _, m := range msgs {
			if err := WriteFrame(c, m); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	readFrames(t, bufio.NewReader(c), msgs)
	if err := <-werr; err != nil {
		t.Fatalf("writer: %v", err)
	}
}

// TestFrameTruncatedAtEveryOffset: a stream that ends anywhere inside a
// frame is io.ErrUnexpectedEOF — never a short message, never a clean
// EOF.
func TestFrameTruncatedAtEveryOffset(t *testing.T) {
	var frame bytes.Buffer
	writeFrames(t, &frame, []Message{sampleMessage()})
	full := frame.Bytes()
	for cut := 1; cut < len(full); cut++ {
		m, err := ReadFrame(bytes.NewReader(full[:cut]))
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d of %d: got %+v, %v; want io.ErrUnexpectedEOF", cut, len(full), m, err)
		}
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}

// prefixOnlyReader serves a length prefix through ReadByte and fails
// the test if the body is ever asked for.
type prefixOnlyReader struct {
	t      *testing.T
	prefix []byte
}

func (p *prefixOnlyReader) ReadByte() (byte, error) {
	if len(p.prefix) == 0 {
		p.t.Error("ReadByte past the length prefix")
		return 0, io.EOF
	}
	b := p.prefix[0]
	p.prefix = p.prefix[1:]
	return b, nil
}

func (p *prefixOnlyReader) Read([]byte) (int, error) {
	p.t.Error("body read for a frame whose prefix is over the limit")
	return 0, io.EOF
}

// TestFrameOversizeRefusedBeforeBody: the size check sits between the
// prefix and the body's allocation — an oversize prefix costs neither a
// body-sized buffer nor a single body read.
func TestFrameOversizeRefusedBeforeBody(t *testing.T) {
	for _, prefix := range [][]byte{
		{0x81, 0x80, 0x40},             // MaxMessageSize + 1
		{0xff, 0xff, 0xff, 0xff, 0x7f}, // 32 GiB
	} {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		before := m.TotalAlloc
		_, err := ReadFrame(&prefixOnlyReader{t: t, prefix: prefix})
		runtime.ReadMemStats(&m)
		if err != ErrTooLarge {
			t.Errorf("prefix %x: %v, want ErrTooLarge", prefix, err)
		}
		if got := m.TotalAlloc - before; got > 64<<10 {
			t.Errorf("prefix %x: %d bytes allocated refusing it", prefix, got)
		}
	}
}

// TestFramesDoNotShareBuffers: a decoded Message aliases the buffer its
// frame was read into, so that buffer must never be recycled — the
// first message of a stream is intact after the second has been read.
func TestFramesDoNotShareBuffers(t *testing.T) {
	first := Message{Type: TBlock, Key: []byte("first"), BlockData: patternBlock()}
	second := Message{Type: TBlock, Key: []byte("other"), BlockData: bytes.Repeat([]byte{0xff}, blockSize)}
	var stream bytes.Buffer
	writeFrames(t, &stream, []Message{first, second})
	raw := stream.Bytes()
	r := bufio.NewReader(bytes.NewReader(raw))
	got1, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := ReadFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	if !messagesEqual(first, got1) || !messagesEqual(second, got2) {
		t.Error("reading the second frame disturbed the first")
	}
	// Nor is a message a view of the stream it came from.
	for i := range raw {
		raw[i] = 0
	}
	if !messagesEqual(first, got1) || !messagesEqual(second, got2) {
		t.Error("a decoded message aliases the stream, not its own frame buffer")
	}
}

// TestFrameBlockAllocs: moving one 256 KiB TBlock through WriteFrame and
// ReadFrame allocates one payload-sized buffer — the frame the decoded
// message aliases. The writer hands BlockData to the stream as it is.
// (Before the whole-buffer frame path: the marshalled body, its copy
// behind the prefix, and the reader's buffer.)
func TestFrameBlockAllocs(t *testing.T) {
	msg := Message{Type: TBlock, Key: []byte{0x01, 0x70}, BlockData: patternBlock()}
	var stream bytes.Buffer
	stream.Grow(blockSize + 1024) // so the stream itself allocates nothing below
	const rounds = 20
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	for i := 0; i < rounds; i++ {
		stream.Reset()
		if err := WriteFrame(&stream, msg); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&stream)
		if err != nil || len(got.BlockData) != blockSize {
			t.Fatalf("read: %d bytes, %v", len(got.BlockData), err)
		}
	}
	runtime.ReadMemStats(&m)
	perOp := float64(m.TotalAlloc-before) / rounds
	if perOp > 1.25*blockSize {
		t.Errorf("%.0f bytes allocated per 256 KiB block written and read, want one payload-sized buffer (%d)", perOp, blockSize)
	}
}

// headFrames are the frames the byte-at-a-time codec this one replaced
// produced for frameTable()[:7], captured from it once: full hex, or
// for the block-sized frame its length and SHA-256.
var headFrames = []string{
	"c203420601551202aabb022212207890320d1f0a60cf9a11c183aedb5c0b889760a2e89d3ef2da14160b7faf9811010f0407312e322e332e34060434303031221220a30eec20aed3f60e67240625d81be3af795326997c8867537afd5b021269c1540001221220a30eec20aed3f60e67240625d81be3af795326997c8867537afd5b021269c15401400407352e362e372e38060434303032a5032e516d5a4b414d767a724845444e6637756e317643633679315a3946477479636a70506f344a705837435368684758012212207890320d1f0a60cf9a11c183aedb5c0b889760a2e89d3ef2da14160b7faf98110720448f8c6c802a59170392e8b3d8d21f33f0c8acae953dd5b79b19ad7eb48a8d114049df7b3ca728850d60301225f4935620c527fe0111bf9c0793944131c29f6497c857f3f4fc016d6f6a7f5b6a1763fd34135e9970e30787edded7c3abba01910a010f0407312e322e332e34060434303031808080c5ddf0959a160a69706e732d62797465730b626c6f636b2d627974657300020501551202cc0501551202dd010501551202ee012212207890320d1f0a60cf9a11c183aedb5c0b889760a2e89d3ef2da14160b7faf98110080d0db88d2f3959a16",
	"0a01000000000000000000",
	"0b4800000000000001780000",
	"0f030101000000000000020102010300",
	"82011000000000000000000205015512020101221220d88cf1532f3d70521729c9d269bd420f02739d117a43637e3077ef43cc77e8e1010f0407392e392e392e390604343030318080a8b1e39fe7cb1705015512020201221220d88cf1532f3d70521729c9d269bd420f02739d117a43637e3077ef43cc77e8e1008094938ee79fe7cb17",
	"100a0601701202aabb0000000000000000",
	"len 262167 sha256 c5cc7bd9c419779bfb68fc250c6450d87badbecc38c1ba298d61246658b241e1",
}

// TestFrameBytesUnchanged: the new writer changes how a frame reaches
// the socket, not one byte of it — an old node and a new one
// interoperate frame for frame.
func TestFrameBytesUnchanged(t *testing.T) {
	for i, m := range frameTable()[:len(headFrames)] {
		var buf bytes.Buffer
		writeFrames(t, &buf, []Message{m})
		got := hex.EncodeToString(buf.Bytes())
		if buf.Len() > 2000 {
			sum := sha256.Sum256(buf.Bytes())
			got = "len " + strconv.Itoa(buf.Len()) + " sha256 " + hex.EncodeToString(sum[:])
		}
		if got != headFrames[i] {
			t.Errorf("frame %d (%s):\n  got  %s\n  want %s", i, m.Type, got, headFrames[i])
		}
		// The body of a frame is exactly Marshal's output.
		n := len(buf.Bytes()) - len(m.Marshal())
		if n < 1 || !bytes.Equal(buf.Bytes()[n:], m.Marshal()) {
			t.Errorf("frame %d (%s): body differs from Marshal()", i, m.Type)
		}
	}
}

// TestWriteFrameSurfacesWriterError: on the net.Buffers path an error
// from any of the three writes is WriteFrame's error.
func TestWriteFrameSurfacesWriterError(t *testing.T) {
	boom := errors.New("boom")
	msg := Message{Type: TBlock, BlockData: patternBlock()}
	for failAt := 0; failAt < 3; failAt++ {
		w := &failingWriter{failAt: failAt, err: boom}
		if err := WriteFrame(w, msg); !errors.Is(err, boom) {
			t.Errorf("write %d failing: WriteFrame = %v", failAt, err)
		}
	}
}

type failingWriter struct {
	failAt, n int
	err       error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > w.failAt {
		return 0, w.err
	}
	return len(p), nil
}

// fuzzSeeds are the table's frames and bodies plus a few hostile
// prefixes.
func fuzzSeeds(f *testing.F, framed bool) {
	for _, m := range frameTable() {
		if len(m.BlockData) > 1024 {
			m.BlockData = m.BlockData[:1024] // keep the corpus small; the shape is what matters
		}
		if !framed {
			f.Add(m.Marshal())
			continue
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0x81, 0x80, 0x40})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
}

// checkReencodes is the round-trip property: whatever decoded encodes
// to something that decodes to the same message, and that encoding is
// a fixed point.
func checkReencodes(t *testing.T, m Message) {
	t.Helper()
	enc := m.Marshal()
	back, err := Unmarshal(enc)
	if err != nil {
		t.Fatalf("re-decoding a decoded message: %v", err)
	}
	if !messagesEqual(m, back) {
		t.Fatalf("decoded message does not survive Marshal/Unmarshal:\n  in:  %+v\n  out: %+v", m, back)
	}
	if !bytes.Equal(enc, back.Marshal()) {
		t.Fatal("Marshal is not a fixed point after one round trip")
	}
}

func FuzzUnmarshal(f *testing.F) {
	fuzzSeeds(f, false)
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := Unmarshal(body)
		if err != nil {
			return
		}
		checkReencodes(t, m)
	})
}

func FuzzReadFrame(f *testing.F) {
	fuzzSeeds(f, true)
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := bytes.NewReader(stream)
		for {
			before := r.Len()
			m, err := ReadFrame(r)
			consumed := before - r.Len()
			if err != nil {
				// A refused frame never costs more of the stream than a
				// prefix and a legal body.
				if consumed > MaxMessageSize+10 {
					t.Fatalf("%d bytes consumed by a frame refused with %v", consumed, err)
				}
				return
			}
			if consumed > MaxMessageSize+3 {
				t.Fatalf("accepted a %d-byte frame", consumed)
			}
			checkReencodes(t, m)
			// What was accepted can be framed again and read back.
			var buf bytes.Buffer
			if err := WriteFrame(&buf, m); err != nil {
				t.Fatalf("re-framing an accepted message: %v", err)
			}
			if back, err := ReadFrame(&buf); err != nil || !messagesEqual(m, back) {
				t.Fatalf("re-framed message does not read back: %v", err)
			}
		}
	})
}

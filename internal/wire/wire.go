// Package wire defines the request/response messages exchanged between
// peers — the DHT RPCs of §3.1–3.2 and the Bitswap messages
// (WANT-HAVE / HAVE / WANT-BLOCK / BLOCK) — together with a compact
// varint-framed binary codec used by the TCP transport.
package wire

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/varint"
)

// Type enumerates message kinds.
type Type uint8

// Requests.
const (
	TPing          Type = iota + 1
	TFindNode           // DHT: return k closest peers to Key
	TAddProvider        // DHT: store a provider record for Key (CID bytes)
	TGetProviders       // DHT: return providers of Key plus closer peers
	TPutPeerRecord      // DHT: store a signed peer record
	TGetPeerRecord      // DHT: fetch the peer record for Key (PeerID bytes)
	TPutIPNS            // DHT: store an IPNS record under Key
	TGetIPNS            // DHT: fetch the IPNS record under Key
	TWantHave           // Bitswap: does the peer have block Key?
	TWantBlock          // Bitswap: send block Key
	TIdentify           // exchange listen addresses after connecting
	TCrawl              // measurement: dump the peer's k-bucket contents (§4.1)
	TDialBack           // AutoNAT: ask the peer to dial us back (§2.3)
	_                   // 14 and 15 were the circuit relay's, which no node serves;
	_                   // they stay unused so the codes after them keep their bytes
	TGossip             // indexer: anti-entropy push of provider records inside a replica group
)

// Responses.
const (
	TAck Type = iota + 64
	TNodes
	TProviders
	TPeerRecordResp
	TIPNSResp
	THave
	TDontHave
	TBlock
	TError
)

// PeerInfo couples a PeerID with known multiaddresses, the unit the
// DHT returns from lookups.
type PeerInfo struct {
	ID    peer.ID
	Addrs []multiaddr.Multiaddr
}

// Message is the single wire message type; unused fields stay zero.
type Message struct {
	Type      Type
	Key       []byte             // DHT key / binary CID / PeerID
	Keys      [][]byte           // additional record keys of a batched ADD_PROVIDER
	Peers     []PeerInfo         // closer peers (TNodes) or identify addresses
	Providers []PeerInfo         // provider peers (TProviders)
	PeerRec   *record.PeerRecord // signed peer record payload
	IPNSData  []byte             // opaque serialized IPNS record
	BlockData []byte             // block payload (TBlock)
	ErrMsg    string             // error detail (TError)
	Records   []ProviderEntry    // replicated provider records (TGossip)
}

// ProviderEntry is one replicated provider record inside a TGossip
// push: the binary CID, the provider, and the record's original publish
// instant — carried so a replicated copy expires exactly when the
// original does instead of restarting its TTL at the receiving replica.
type ProviderEntry struct {
	Key       []byte // binary CID
	Provider  PeerInfo
	Published time.Time
}

// AllKeys returns the primary key plus the batch tail, skipping empty
// entries — the full record-key list of a (possibly batched)
// ADD_PROVIDER.
func (m Message) AllKeys() [][]byte {
	if len(m.Keys) == 0 {
		if len(m.Key) == 0 {
			return nil
		}
		return [][]byte{m.Key}
	}
	out := make([][]byte, 0, 1+len(m.Keys))
	if len(m.Key) > 0 {
		out = append(out, m.Key)
	}
	return append(out, m.Keys...)
}

// Errors returned by the codec.
var (
	ErrTooLarge  = errors.New("wire: message exceeds size limit")
	ErrMalformed = errors.New("wire: malformed message")
)

// MaxMessageSize bounds a single message (a block of 256 KiB plus
// generous framing headroom).
const MaxMessageSize = 1 << 20

// String names the message type for logs.
func (t Type) String() string {
	switch t {
	case TPing:
		return "PING"
	case TFindNode:
		return "FIND_NODE"
	case TAddProvider:
		return "ADD_PROVIDER"
	case TGetProviders:
		return "GET_PROVIDERS"
	case TPutPeerRecord:
		return "PUT_PEER_RECORD"
	case TGetPeerRecord:
		return "GET_PEER_RECORD"
	case TPutIPNS:
		return "PUT_IPNS"
	case TGetIPNS:
		return "GET_IPNS"
	case TWantHave:
		return "WANT_HAVE"
	case TWantBlock:
		return "WANT_BLOCK"
	case TIdentify:
		return "IDENTIFY"
	case TCrawl:
		return "CRAWL"
	case TDialBack:
		return "DIAL_BACK"
	case TGossip:
		return "GOSSIP"
	case TAck:
		return "ACK"
	case TNodes:
		return "NODES"
	case TProviders:
		return "PROVIDERS"
	case TPeerRecordResp:
		return "PEER_RECORD"
	case TIPNSResp:
		return "IPNS"
	case THave:
		return "HAVE"
	case TDontHave:
		return "DONT_HAVE"
	case TBlock:
		return "BLOCK"
	case TError:
		return "ERROR"
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// ErrorMessage builds a TError response.
func ErrorMessage(format string, args ...interface{}) Message {
	return Message{Type: TError, ErrMsg: fmt.Sprintf(format, args...)}
}

// appendBytes writes a varint length followed by the bytes.
func appendBytes(dst, b []byte) []byte {
	dst = varint.Append(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendPeerInfos(dst []byte, infos []PeerInfo) []byte {
	dst = varint.Append(dst, uint64(len(infos)))
	for _, pi := range infos {
		dst = appendBytes(dst, []byte(pi.ID))
		dst = varint.Append(dst, uint64(len(pi.Addrs)))
		for _, a := range pi.Addrs {
			dst = appendBytes(dst, a.Bytes())
		}
	}
	return dst
}

// A message body is head ‖ BlockData ‖ tail: the head carries every
// field up to and including BlockData's length, the tail the fields
// after the payload. Marshal and WriteFrame share the two appenders, so
// the one wire format has one encoder.

func (m Message) appendHead(out []byte) []byte {
	out = append(out, byte(m.Type))
	out = appendBytes(out, m.Key)
	out = appendPeerInfos(out, m.Peers)
	out = appendPeerInfos(out, m.Providers)
	if m.PeerRec != nil {
		out = append(out, 1)
		out = appendBytes(out, []byte(m.PeerRec.ID))
		out = varint.Append(out, m.PeerRec.Seq)
		out = appendBytes(out, m.PeerRec.PublicKey)
		out = appendBytes(out, m.PeerRec.Signature)
		out = varint.Append(out, uint64(len(m.PeerRec.Addrs)))
		for _, a := range m.PeerRec.Addrs {
			out = appendBytes(out, a.Bytes())
		}
		out = varint.Append(out, uint64(m.PeerRec.Published.UnixNano()))
	} else {
		out = append(out, 0)
	}
	out = appendBytes(out, m.IPNSData)
	return varint.Append(out, uint64(len(m.BlockData)))
}

func (m Message) appendTail(out []byte) []byte {
	out = appendBytes(out, []byte(m.ErrMsg))
	out = varint.Append(out, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		out = appendBytes(out, k)
	}
	out = varint.Append(out, uint64(len(m.Records)))
	for _, r := range m.Records {
		out = appendBytes(out, r.Key)
		out = appendPeerInfos(out, []PeerInfo{r.Provider})
		out = varint.Append(out, uint64(r.Published.UnixNano()))
	}
	return out
}

// sizeHint estimates the encoded size of everything but BlockData, so
// the usual message is marshalled into one allocation: the byte fields
// exactly, a peer with one address at about 128 bytes. A low guess only
// costs append a regrowth.
func (m Message) sizeHint() int {
	return 64 + len(m.Key) + len(m.IPNSData) + len(m.ErrMsg) + 128*(len(m.Peers)+len(m.Providers))
}

// Marshal encodes the message body (without outer framing) into a new
// buffer; it copies BlockData and keeps no reference to m's slices.
func (m Message) Marshal() []byte {
	out := m.appendHead(make([]byte, 0, m.sizeHint()+len(m.BlockData)))
	out = append(out, m.BlockData...)
	return m.appendTail(out)
}

type reader struct {
	buf []byte
	pos int
}

func (r *reader) bytes() ([]byte, error) {
	n, used, err := varint.Decode(r.buf[r.pos:])
	if err != nil {
		return nil, err
	}
	r.pos += used
	if uint64(len(r.buf)-r.pos) < n {
		return nil, ErrMalformed
	}
	out := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return out, nil
}

func (r *reader) uvarint() (uint64, error) {
	n, used, err := varint.Decode(r.buf[r.pos:])
	if err != nil {
		return 0, err
	}
	r.pos += used
	return n, nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrMalformed
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) peerInfos() ([]PeerInfo, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > 4096 {
		return nil, ErrMalformed
	}
	out := make([]PeerInfo, 0, n)
	for i := uint64(0); i < n; i++ {
		idb, err := r.bytes()
		if err != nil {
			return nil, err
		}
		na, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if na > 1024 {
			return nil, ErrMalformed
		}
		pi := PeerInfo{ID: peer.ID(idb)}
		for j := uint64(0); j < na; j++ {
			ab, err := r.bytes()
			if err != nil {
				return nil, err
			}
			a, err := multiaddr.FromBytes(ab)
			if err != nil {
				return nil, err
			}
			pi.Addrs = append(pi.Addrs, a)
		}
		out = append(out, pi)
	}
	return out, nil
}

// Unmarshal decodes a message body. The returned Message aliases buf —
// Key, Keys, IPNSData, BlockData and the record keys are sub-slices of
// it, not copies — so buf belongs to the Message from here on and must
// not be written or reused while the Message, or anything built from
// its slices (a block.Block over BlockData), is alive.
func Unmarshal(buf []byte) (Message, error) {
	if len(buf) == 0 {
		return Message{}, ErrMalformed
	}
	r := &reader{buf: buf}
	tb, err := r.byte()
	if err != nil {
		return Message{}, err
	}
	m := Message{Type: Type(tb)}
	if m.Key, err = r.bytes(); err != nil {
		return Message{}, fmt.Errorf("%w: key: %v", ErrMalformed, err)
	}
	if len(m.Key) == 0 {
		m.Key = nil
	}
	if m.Peers, err = r.peerInfos(); err != nil {
		return Message{}, fmt.Errorf("%w: peers: %v", ErrMalformed, err)
	}
	if m.Providers, err = r.peerInfos(); err != nil {
		return Message{}, fmt.Errorf("%w: providers: %v", ErrMalformed, err)
	}
	flag, err := r.byte()
	if err != nil {
		return Message{}, err
	}
	if flag == 1 {
		var rec record.PeerRecord
		idb, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: rec id: %v", ErrMalformed, err)
		}
		rec.ID = peer.ID(idb)
		if rec.Seq, err = r.uvarint(); err != nil {
			return Message{}, fmt.Errorf("%w: rec seq: %v", ErrMalformed, err)
		}
		pk, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: rec key: %v", ErrMalformed, err)
		}
		rec.PublicKey = ed25519.PublicKey(append([]byte(nil), pk...))
		sig, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: rec sig: %v", ErrMalformed, err)
		}
		rec.Signature = append([]byte(nil), sig...)
		na, err := r.uvarint()
		if err != nil {
			return Message{}, err
		}
		if na > 1024 {
			return Message{}, ErrMalformed
		}
		for j := uint64(0); j < na; j++ {
			ab, err := r.bytes()
			if err != nil {
				return Message{}, err
			}
			a, err := multiaddr.FromBytes(ab)
			if err != nil {
				return Message{}, err
			}
			rec.Addrs = append(rec.Addrs, a)
		}
		ns, err := r.uvarint()
		if err != nil {
			return Message{}, err
		}
		rec.Published = time.Unix(0, int64(ns))
		m.PeerRec = &rec
	}
	if m.IPNSData, err = r.bytes(); err != nil {
		return Message{}, fmt.Errorf("%w: ipns: %v", ErrMalformed, err)
	}
	if len(m.IPNSData) == 0 {
		m.IPNSData = nil
	}
	if m.BlockData, err = r.bytes(); err != nil {
		return Message{}, fmt.Errorf("%w: block: %v", ErrMalformed, err)
	}
	if len(m.BlockData) == 0 {
		m.BlockData = nil
	}
	eb, err := r.bytes()
	if err != nil {
		return Message{}, fmt.Errorf("%w: err: %v", ErrMalformed, err)
	}
	m.ErrMsg = string(eb)
	nk, err := r.uvarint()
	if err != nil {
		return Message{}, fmt.Errorf("%w: keys: %v", ErrMalformed, err)
	}
	if nk > 4096 {
		return Message{}, ErrMalformed
	}
	for i := uint64(0); i < nk; i++ {
		kb, err := r.bytes()
		if err != nil {
			return Message{}, fmt.Errorf("%w: keys: %v", ErrMalformed, err)
		}
		m.Keys = append(m.Keys, kb)
	}
	nr, err := r.uvarint()
	if err != nil {
		return Message{}, fmt.Errorf("%w: records: %v", ErrMalformed, err)
	}
	if nr > 4096 {
		return Message{}, ErrMalformed
	}
	for i := uint64(0); i < nr; i++ {
		var e ProviderEntry
		if e.Key, err = r.bytes(); err != nil {
			return Message{}, fmt.Errorf("%w: record key: %v", ErrMalformed, err)
		}
		infos, err := r.peerInfos()
		if err != nil || len(infos) != 1 {
			return Message{}, fmt.Errorf("%w: record provider: %v", ErrMalformed, err)
		}
		e.Provider = infos[0]
		ns, err := r.uvarint()
		if err != nil {
			return Message{}, fmt.Errorf("%w: record published: %v", ErrMalformed, err)
		}
		e.Published = time.Unix(0, int64(ns))
		m.Records = append(m.Records, e)
	}
	return m, nil
}

// inlineBlockMax is the largest BlockData WriteFrame copies into the
// frame's own buffer. Anything bigger (a served block) is cheaper to
// describe to the kernel than to copy; anything smaller (a handshake
// signature, a small block) is cheaper to copy than to describe.
const inlineBlockMax = 4 << 10

// WriteFrame writes a length-prefixed message to w. A payload above
// inlineBlockMax is not copied: the frame goes out as prefix+head ‖
// BlockData ‖ tail through net.Buffers — one writev on a TCP
// connection, so a served block travels from the store's slice to the
// kernel with no user-space copy; three Writes on any other writer.
// WriteFrame only reads m's slices and keeps none of them.
func WriteFrame(w io.Writer, m Message) error {
	var payload []byte // the part of the body sent from where it lies
	if len(m.BlockData) > inlineBlockMax {
		payload = m.BlockData
	}
	// The length prefix is written last, right-aligned against the body
	// in the room reserved here for the longest one.
	buf := make([]byte, varint.MaxLen, varint.MaxLen+m.sizeHint()+len(m.BlockData)-len(payload))
	buf = m.appendHead(buf)
	if payload == nil {
		buf = append(buf, m.BlockData...)
	}
	headEnd := len(buf)
	buf = m.appendTail(buf)
	n := len(buf) - varint.MaxLen + len(payload)
	if n > MaxMessageSize {
		return ErrTooLarge
	}
	start := varint.MaxLen - varint.Len(uint64(n))
	varint.Append(buf[start:start], uint64(n)) // in place: the capacity is the reserved room
	if payload == nil {
		_, err := w.Write(buf[start:])
		return err
	}
	bufs := net.Buffers{buf[start:headEnd], payload, buf[headEnd:]}
	_, err := bufs.WriteTo(w)
	return err
}

// FrameReader is what ReadFrame reads from: single bytes for the length
// prefix, bulk reads for the body. *bufio.Reader, *bytes.Reader and
// *bytes.Buffer satisfy it.
type FrameReader interface {
	io.Reader
	io.ByteReader
}

// ReadFrame reads one length-prefixed message from r. The prefix is
// checked against MaxMessageSize before the body is allocated; the body
// is then read whole into one buffer of exactly its size, which the
// returned Message aliases (see Unmarshal) and owns: ReadFrame never
// recycles it, so a block built over BlockData may keep it for good. A
// stream that ends inside a frame is io.ErrUnexpectedEOF; one that ends
// before the prefix is io.EOF.
func ReadFrame(r FrameReader) (Message, error) {
	n, err := varint.ReadUvarint(r)
	if err != nil {
		return Message{}, err
	}
	if n > MaxMessageSize {
		return Message{}, ErrTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	return Unmarshal(buf)
}

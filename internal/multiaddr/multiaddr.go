// Package multiaddr implements Multiaddresses (§2.2, Figure 2):
// self-describing, human-readable, hierarchically-separated sequences of
// protocol choices that describe an endpoint, e.g.
//
//	/ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14...
//
// The extensible path syntax lets nodes know in advance whether they
// share a transport with a remote peer. A relayed address (a relay's
// address, /p2p-circuit, then the target's /p2p) parses like any other;
// no node dials through one.
package multiaddr

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/varint"
)

// Protocol codes, from the canonical multiaddr protocol table.
const (
	CodeIP4        = 4
	CodeTCP        = 6
	CodeDNS4       = 54
	CodeIP6        = 41
	CodeUDP        = 273
	CodeQUIC       = 460
	CodeWS         = 477
	CodeP2P        = 421
	CodeP2PCircuit = 290
)

// Component is one protocol segment of a multiaddress.
type Component struct {
	Code  int    // protocol code
	Name  string // protocol name as it appears in the path
	Value string // textual value ("" for value-less protocols like ws)
}

// Multiaddr is a multiaddress. It is its validated binary form, held as
// one immutable string: FromBytes checks the structure and copies once,
// Bytes and Equal do no decoding, values compare with ==, and a stored
// address is one object the collector never looks inside. Components
// are decoded only by the accessors that return text (String,
// Components, Value, DialInfo). The zero Multiaddr is the undefined
// address.
type Multiaddr struct {
	b string
}

// ErrInvalid is returned for malformed multiaddresses.
var ErrInvalid = errors.New("multiaddr: invalid")

type protoSpec struct {
	code     int
	name     string
	hasValue bool
	validate func(string) error
}

var protocols = [...]protoSpec{
	{CodeIP4, "ip4", true, func(v string) error {
		if a, ok := parseIP(v); !ok || !(a.Is4() || a.Is4In6()) {
			return fmt.Errorf("bad ip4 %q", v)
		}
		return nil
	}},
	{CodeTCP, "tcp", true, validatePort},
	{CodeP2P, "p2p", true, func(v string) error {
		if v == "" {
			return fmt.Errorf("empty p2p id")
		}
		return nil
	}},
	{CodeIP6, "ip6", true, func(v string) error {
		if a, ok := parseIP(v); !ok || a.Is4() || a.Is4In6() {
			return fmt.Errorf("bad ip6 %q", v)
		}
		return nil
	}},
	{CodeDNS4, "dns4", true, func(v string) error {
		if v == "" {
			return fmt.Errorf("empty dns4 name")
		}
		return nil
	}},
	{CodeUDP, "udp", true, validatePort},
	{CodeQUIC, "quic", false, nil},
	{CodeWS, "ws", false, nil},
	{CodeP2PCircuit, "p2p-circuit", false, nil},
}

func protoByName(name string) *protoSpec {
	for i := range protocols {
		if protocols[i].name == name {
			return &protocols[i]
		}
	}
	return nil
}

func protoByCode(code uint64) *protoSpec {
	for i := range protocols {
		if uint64(protocols[i].code) == code {
			return &protocols[i]
		}
	}
	return nil
}

// parseIP accepts what net.ParseIP accepts, without allocating.
func parseIP(v string) (netip.Addr, bool) {
	a, err := netip.ParseAddr(v)
	return a, err == nil && a.Zone() == ""
}

func validatePort(v string) error {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 || n > 65535 {
		return fmt.Errorf("bad port %q", v)
	}
	return nil
}

// appendComponent appends one component's binary form: a varint
// protocol code, then for valued protocols a varint length and the
// value bytes.
func appendComponent(dst []byte, p *protoSpec, value string) []byte {
	dst = varint.Append(dst, uint64(p.code))
	if p.hasValue {
		dst = varint.Append(dst, uint64(len(value)))
		dst = append(dst, value...)
	}
	return dst
}

// Parse parses the text form of a multiaddress.
func Parse(s string) (Multiaddr, error) {
	if s == "" || s[0] != '/' {
		return Multiaddr{}, fmt.Errorf("%w: must begin with '/': %q", ErrInvalid, s)
	}
	b := make([]byte, 0, len(s))
	for rest, more := s[1:], true; more; {
		var name, value string
		name, rest, more = strings.Cut(rest, "/")
		spec := protoByName(name)
		if spec == nil {
			return Multiaddr{}, fmt.Errorf("%w: unknown protocol %q", ErrInvalid, name)
		}
		if spec.hasValue {
			if !more {
				return Multiaddr{}, fmt.Errorf("%w: protocol %q requires a value", ErrInvalid, name)
			}
			value, rest, more = strings.Cut(rest, "/")
			if err := spec.validate(value); err != nil {
				return Multiaddr{}, fmt.Errorf("%w: %v", ErrInvalid, err)
			}
		}
		b = appendComponent(b, spec, value)
	}
	return Multiaddr{b: string(b)}, nil
}

// MustParse is Parse for literals in tests and examples; it panics on error.
func MustParse(s string) Multiaddr {
	m, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return m
}

// uvarint decodes the varint at the front of a validated binary form.
func uvarint(b string) (v uint64, n int) {
	for shift := uint(0); ; shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
}

// cut splits the first component off a validated binary form, or
// returns a nil protocol when b is empty. It allocates nothing: value
// and rest are substrings of b.
func cut(b string) (p *protoSpec, value, rest string) {
	if b == "" {
		return nil, "", ""
	}
	code, n := uvarint(b)
	p, b = protoByCode(code), b[n:]
	if p.hasValue {
		l, n := uvarint(b)
		value, b = b[n:n+int(l)], b[n+int(l):]
	}
	return p, value, b
}

// String renders the canonical text form.
func (m Multiaddr) String() string {
	var sb strings.Builder
	for p, v, b := cut(m.b); p != nil; p, v, b = cut(b) {
		sb.WriteByte('/')
		sb.WriteString(p.name)
		if p.hasValue {
			sb.WriteByte('/')
			sb.WriteString(v)
		}
	}
	return sb.String()
}

// Components returns the decoded component list.
func (m Multiaddr) Components() []Component {
	var out []Component
	for p, v, b := cut(m.b); p != nil; p, v, b = cut(b) {
		out = append(out, Component{Code: p.code, Name: p.name, Value: v})
	}
	return out
}

// Defined reports whether the multiaddress has at least one component.
func (m Multiaddr) Defined() bool { return m.b != "" }

// Equal reports whether two multiaddresses are identical.
func (m Multiaddr) Equal(o Multiaddr) bool { return m.b == o.b }

// find returns the value of the first component with the given
// protocol code, and whether there is one.
func (m Multiaddr) find(code int) (string, bool) {
	for p, v, b := cut(m.b); p != nil; p, v, b = cut(b) {
		if p.code == code {
			return v, true
		}
	}
	return "", false
}

// Value returns the value of the first component with the given
// protocol name, and whether it was present.
func (m Multiaddr) Value(name string) (string, bool) {
	if p := protoByName(name); p != nil {
		return m.find(p.code)
	}
	return "", false
}

// Has reports whether the address contains the given protocol.
func (m Multiaddr) Has(name string) bool {
	_, ok := m.Value(name)
	return ok
}

// PeerID returns the first /p2p/<id> component value, if any.
func (m Multiaddr) PeerID() (string, bool) { return m.find(CodeP2P) }

// Encapsulate appends o's components to m, e.g. turning
// /ip4/1.2.3.4/tcp/3333 into /ip4/1.2.3.4/tcp/3333/p2p/Qm....
func (m Multiaddr) Encapsulate(o Multiaddr) Multiaddr { return Multiaddr{b: m.b + o.b} }

// Decapsulate removes the suffix beginning at the first occurrence of
// o's leading component; it returns m unchanged if o does not occur.
func (m Multiaddr) Decapsulate(o Multiaddr) Multiaddr {
	if o.b == "" {
		return m
	}
	op, ov, _ := cut(o.b)
	for at := m.b; at != ""; {
		p, v, rest := cut(at)
		if p == op && v == ov {
			return Multiaddr{b: m.b[:len(m.b)-len(at)]}
		}
		at = rest
	}
	return m
}

// DialInfo extracts the network ("tcp") and host:port a dialer should
// use, if the address has an IP/TCP (or DNS4/TCP) prefix.
func (m Multiaddr) DialInfo() (network, hostport string, err error) {
	var host, port string
	for p, v, b := cut(m.b); p != nil; p, v, b = cut(b) {
		switch p.code {
		case CodeIP4, CodeIP6, CodeDNS4:
			host = v
		case CodeTCP:
			port = v
		}
	}
	if host == "" || port == "" {
		return "", "", fmt.Errorf("%w: no dialable ip/tcp component in %s", ErrInvalid, m)
	}
	return "tcp", net.JoinHostPort(host, port), nil
}

// Bytes returns a copy of the binary form: for each component a varint
// protocol code, then for valued protocols a varint length and the
// value bytes.
func (m Multiaddr) Bytes() []byte { return []byte(m.b) }

// FromBytes parses the binary form produced by Bytes. It accepts
// exactly what Parse accepts — known protocols, minimal varints, values
// that pass their protocol's check and hold no '/' — so every Multiaddr
// has a text form that parses back to it.
func FromBytes(raw []byte) (Multiaddr, error) {
	if len(raw) == 0 {
		return Multiaddr{}, fmt.Errorf("%w: empty", ErrInvalid)
	}
	b := string(raw) // the one copy; values are checked as substrings of it
	for off := 0; off < len(raw); {
		code, n, err := varint.Decode(raw[off:])
		if err != nil {
			return Multiaddr{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		off += n
		spec := protoByCode(code)
		if spec == nil {
			return Multiaddr{}, fmt.Errorf("%w: unknown protocol code %d", ErrInvalid, code)
		}
		if !spec.hasValue {
			continue
		}
		l, n, err := varint.Decode(raw[off:])
		if err != nil {
			return Multiaddr{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		off += n
		if uint64(len(raw)-off) < l {
			return Multiaddr{}, fmt.Errorf("%w: truncated value", ErrInvalid)
		}
		value := b[off : off+int(l)]
		off += int(l)
		if strings.IndexByte(value, '/') >= 0 {
			return Multiaddr{}, fmt.Errorf("%w: '/' in %s value %q", ErrInvalid, spec.name, value)
		}
		if err := spec.validate(value); err != nil {
			return Multiaddr{}, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	return Multiaddr{b: b}, nil
}

// ForPeer builds the canonical /ip4/<ip>/tcp/<port>/p2p/<peerID> address
// of Figure 2.
func ForPeer(ip string, port int, peerID string) Multiaddr {
	return MustParse(fmt.Sprintf("/ip4/%s/tcp/%d/p2p/%s", ip, port, peerID))
}

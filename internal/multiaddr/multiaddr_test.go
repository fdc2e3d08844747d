package multiaddr

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseFigure2(t *testing.T) {
	// The paper's Figure 2 example.
	m, err := Parse("/ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.String(); got != "/ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14" {
		t.Errorf("String() = %q", got)
	}
	if v, _ := m.Value("ip4"); v != "1.2.3.4" {
		t.Errorf("ip4 = %q", v)
	}
	if v, _ := m.Value("tcp"); v != "3333" {
		t.Errorf("tcp = %q", v)
	}
	if id, ok := m.PeerID(); !ok || id != "QmZyWQ14" {
		t.Errorf("PeerID = %q, %v", id, ok)
	}
}

func TestParseVariants(t *testing.T) {
	valid := []string{
		"/ip4/127.0.0.1/tcp/4001",
		"/ip6/::1/tcp/4001",
		"/ip4/10.0.0.1/udp/4001/quic",
		"/dns4/example.com/tcp/443/ws",
		"/p2p/QmAbC",
	}
	for _, s := range valid {
		m, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if m.String() != s {
			t.Errorf("round trip %q -> %q", s, m.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	invalid := []string{
		"",
		"ip4/1.2.3.4",
		"/",
		"/ip4",
		"/ip4/999.0.0.1/tcp/80",
		"/ip4/1.2.3.4/tcp/99999",
		"/ip4/::1/tcp/80",
		"/ip6/1.2.3.4/tcp/80",
		"/bogus/1",
		"/tcp/-1",
	}
	for _, s := range invalid {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestEncapsulateDecapsulate(t *testing.T) {
	base := MustParse("/ip4/1.2.3.4/tcp/3333")
	p2p := MustParse("/p2p/QmTarget")
	full := base.Encapsulate(p2p)
	if full.String() != "/ip4/1.2.3.4/tcp/3333/p2p/QmTarget" {
		t.Errorf("Encapsulate = %s", full)
	}
	back := full.Decapsulate(p2p)
	if !back.Equal(base) {
		t.Errorf("Decapsulate = %s, want %s", back, base)
	}
	// Decapsulating something absent is a no-op.
	if got := base.Decapsulate(MustParse("/p2p/QmOther")); !got.Equal(base) {
		t.Errorf("absent Decapsulate = %s", got)
	}
}

func TestRelayPrefixing(t *testing.T) {
	// A relayed address a peer may advertise: the relay's own address,
	// /p2p-circuit, then the target's /p2p component.
	const want = "/ip4/9.9.9.9/tcp/4001/p2p/QmRelay/p2p-circuit/p2p/QmBrowserNode"
	m := MustParse(want)
	if m.String() != want {
		t.Errorf("String = %s, want %s", m, want)
	}
	back, err := FromBytes(m.Bytes())
	if err != nil || !back.Equal(m) {
		t.Fatalf("FromBytes(Bytes()) = %s, %v", back, err)
	}
	if !m.Has("p2p-circuit") || MustParse("/ip4/9.9.9.9/tcp/4001").Has("p2p-circuit") {
		t.Error("Has(p2p-circuit) is wrong")
	}
	if id, ok := m.PeerID(); !ok || id != "QmRelay" {
		t.Errorf("PeerID = %q, %v; want the relay's id first", id, ok)
	}
}

func TestDialInfo(t *testing.T) {
	m := MustParse("/ip4/127.0.0.1/tcp/4001/p2p/QmX")
	network, hostport, err := m.DialInfo()
	if err != nil {
		t.Fatal(err)
	}
	if network != "tcp" || hostport != "127.0.0.1:4001" {
		t.Errorf("DialInfo = %s %s", network, hostport)
	}
	if _, _, err := MustParse("/p2p/QmX").DialInfo(); err == nil {
		t.Error("p2p-only address should not be dialable")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, s := range []string{
		"/ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14",
		"/ip4/10.0.0.1/udp/4001/quic",
		"/dns4/gateway.ipfs.io/tcp/443/ws",
	} {
		m := MustParse(s)
		back, err := FromBytes(m.Bytes())
		if err != nil {
			t.Fatalf("FromBytes(%s): %v", s, err)
		}
		if !back.Equal(m) {
			t.Errorf("binary round trip %q -> %q", s, back)
		}
	}
}

func TestFromBytesErrors(t *testing.T) {
	if _, err := FromBytes(nil); err == nil {
		t.Error("empty binary should fail")
	}
	if _, err := FromBytes([]byte{0xff, 0xff, 0x01}); err == nil {
		t.Error("unknown code should fail")
	}
	m := MustParse("/p2p/QmX")
	raw := m.Bytes()
	if _, err := FromBytes(raw[:len(raw)-2]); err == nil {
		t.Error("truncated value should fail")
	}
}

func TestForPeer(t *testing.T) {
	m := ForPeer("192.168.1.7", 4001, "QmPeer")
	if !strings.HasSuffix(m.String(), "/p2p/QmPeer") {
		t.Errorf("ForPeer = %s", m)
	}
}

func TestQuickForPeerRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint8, port uint16, idSeed uint8) bool {
		ip := MustParse("/ip4/" + ipStr(a, b, c, d) + "/tcp/" + itoa(int(port)))
		back, err := FromBytes(ip.Bytes())
		return err == nil && back.Equal(ip)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func ipStr(a, b, c, d uint8) string {
	return itoa(int(a)) + "." + itoa(int(b)) + "." + itoa(int(c)) + "." + itoa(int(d))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestFromBytesAcceptsWhatParseAccepts: the binary form admits exactly
// the addresses the text form does, so String never renders something
// Parse would refuse.
func TestFromBytesAcceptsWhatParseAccepts(t *testing.T) {
	value := func(code byte, v string) []byte { return append([]byte{code, byte(len(v))}, v...) }
	for name, raw := range map[string][]byte{
		"ip4 that is not an address": value(CodeIP4, "999.0.0.1"),
		"ip6 in an ip4":              value(CodeIP4, "::1"),
		"port out of range":          value(CodeTCP, "99999"),
		"empty dns4 name":            value(CodeDNS4, ""),
		"slash inside a value":       value(CodeDNS4, "a/tcp/1"),
		"non-minimal varint":         {0x86, 0x00, 0x01, '1'},
	} {
		if m, err := FromBytes(raw); err == nil {
			t.Errorf("%s: FromBytes accepted %q", name, m)
		}
	}
	if _, err := FromBytes(value(CodeIP4, "::ffff:1.2.3.4")); err != nil {
		t.Errorf("an IPv4-mapped address is an ip4 for Parse and must be one for FromBytes: %v", err)
	}
}

// TestScansDoNotAllocate: the per-RPC questions asked of a stored
// address are answered from its bytes.
func TestScansDoNotAllocate(t *testing.T) {
	m := MustParse("/ip4/9.9.9.9/tcp/4001/p2p/QmRelay/p2p-circuit/p2p/QmTarget")
	o := MustParse("/ip4/9.9.9.9/tcp/4001/p2p/QmRelay")
	allocs := testing.AllocsPerRun(100, func() {
		if !m.Has("p2p-circuit") || o.Has("p2p-circuit") || !m.Defined() || m.Equal(o) {
			t.Fatal("wrong answer")
		}
		if id, ok := m.PeerID(); !ok || id != "QmRelay" {
			t.Fatal("wrong peer id")
		}
		if v, ok := m.Value("tcp"); !ok || v != "4001" {
			t.Fatal("wrong port")
		}
	})
	if allocs != 0 {
		t.Errorf("Has/PeerID/Value/Equal allocate %.0f times per call", allocs)
	}
}

// FuzzMultiaddrFromBytes: whatever decodes is its input, has a text
// form that parses back to it, and survives every accessor.
func FuzzMultiaddrFromBytes(f *testing.F) {
	for _, s := range []string{
		"/ip4/1.2.3.4/tcp/3333/p2p/QmZyWQ14",
		"/ip4/127.0.0.1/tcp/4001",
		"/ip6/::1/tcp/4001",
		"/ip4/10.0.0.1/udp/4001/quic",
		"/dns4/gateway.ipfs.io/tcp/443/ws",
		"/p2p/QmAbC",
		"/ip4/9.9.9.9/tcp/4001/p2p/QmRelay/p2p-circuit/p2p/QmBrowserNode",
	} {
		f.Add(MustParse(s).Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0x01})
	f.Add([]byte{CodeIP4, 9, '9', '9', '9', '.', '0', '.', '0', '.', '1'})
	f.Add([]byte{CodeDNS4, 3, 'a', '/', 'b'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := FromBytes(raw)
		if err != nil {
			if m.Defined() {
				t.Fatalf("FromBytes failed with %v and still returned %q", err, m)
			}
			return
		}
		if !bytes.Equal(m.Bytes(), raw) {
			t.Fatalf("Bytes() = %x, decoded from %x", m.Bytes(), raw)
		}
		back, err := Parse(m.String())
		if err != nil || !back.Equal(m) {
			t.Fatalf("Parse(%q) = %q, %v: not the address that rendered it", m.String(), back, err)
		}
		comps := m.Components()
		if len(comps) == 0 {
			t.Fatalf("%q decoded to no components", m)
		}
		m.Has("p2p-circuit")
		m.PeerID()
		m.DialInfo()
		if v, ok := m.Value(comps[0].Name); !ok || v != comps[0].Value {
			t.Fatalf("Value(%q) = %q, %v; Components says %q", comps[0].Name, v, ok, comps[0].Value)
		}
		if d := m.Decapsulate(m); d.Defined() {
			t.Fatalf("%q minus itself = %q", m, d)
		}
	})
}

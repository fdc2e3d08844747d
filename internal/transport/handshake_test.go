package transport

import (
	"bufio"
	"bytes"
	"context"
	"crypto/ed25519"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/ipns"
	"repro/internal/multiaddr"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/varint"
	"repro/internal/wire"
)

func listenTest(t *testing.T, seed int64) *TCPEndpoint {
	t.Helper()
	ep, err := ListenTCP(peer.MustNewIdentity(rand.New(rand.NewSource(seed))), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

func rawDial(t *testing.T, ep *TCPEndpoint) net.Conn {
	t.Helper()
	_, hostport, err := ep.Addrs()[0].DialInfo()
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", hostport)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	// The test's own bound, far above the deadline under test, so a
	// listener that never hangs up fails instead of hanging.
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c
}

// shortHandshake shortens the handshake deadline for one test. Called
// before any endpoint exists and undone after the last one has closed
// (cleanups run last-in first-out), so no endpoint goroutine reads the
// variable while it changes.
func shortHandshake(t *testing.T, d time.Duration) {
	old := handshakeTimeout
	handshakeTimeout = d
	t.Cleanup(func() { handshakeTimeout = old })
}

// TestSilentInboundConnectionIsClosed: a peer that connects and never
// sends its hello is hung up on when the handshake deadline passes,
// rather than holding a goroutine and a descriptor for ever.
func TestSilentInboundConnectionIsClosed(t *testing.T) {
	shortHandshake(t, 250*time.Millisecond)
	ep := listenTest(t, 1)
	c := rawDial(t, ep)
	start := time.Now()
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection: read = %v after %v, want EOF from the endpoint hanging up", err, time.Since(start))
	}
	// Stalling half-way (hello sent, proof withheld) is bounded the same.
	c = rawDial(t, ep)
	hello := wire.Message{Type: wire.TIdentify, Key: []byte("challenge"), Peers: []wire.PeerInfo{{ID: "nobody"}}}
	if err := wire.WriteFrame(c, hello); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(c)
	if _, err := wire.ReadFrame(r); err != nil {
		t.Fatalf("listener's answer: %v", err)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("stalled handshake: read = %v, want EOF", err)
	}
}

// TestHandshakeDeadlineIsClearedAfterProof: the deadline covers the
// handshake only — an established connection idle for longer than it
// still serves requests.
func TestHandshakeDeadlineIsClearedAfterProof(t *testing.T) {
	shortHandshake(t, 250*time.Millisecond)
	a, b := listenTest(t, 1), listenTest(t, 2)
	b.SetHandler(func(context.Context, peer.ID, wire.Message) wire.Message { return wire.Message{Type: wire.TAck} })
	conn, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(handshakeTimeout + 100*time.Millisecond)
	if resp, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing}); err != nil || resp.Type != wire.TAck {
		t.Fatalf("request on an idle established connection: %+v, %v", resp, err)
	}
}

// TestHandshakeChallengesDiffer: both sides draw a fresh challenge per
// handshake, so a recorded proof is worthless against the next one.
func TestHandshakeChallengesDiffer(t *testing.T) {
	ep := listenTest(t, 1)

	// The listener's challenge, seen by two raw dialers.
	var listenerNonces [][]byte
	for i := 0; i < 2; i++ {
		c := rawDial(t, ep)
		hello := wire.Message{Type: wire.TIdentify, Key: []byte("same hello"), Peers: []wire.PeerInfo{{ID: "nobody"}}}
		if err := wire.WriteFrame(c, hello); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadFrame(bufio.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		listenerNonces = append(listenerNonces, resp.Key)
		c.Close()
	}

	// The dialer's challenge, seen by a raw listener that reads the
	// hello and hangs up.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hellos := make(chan []byte, 2)
	go func() {
		for i := 0; i < 2; i++ {
			c, err := ln.Accept()
			if err != nil {
				hellos <- nil
				return
			}
			hello, _ := wire.ReadFrame(bufio.NewReader(c))
			hellos <- hello.Key
			c.Close()
		}
	}()
	var dialerNonces [][]byte
	for i := 0; i < 2; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.handshakeOut(nc, ""); err == nil {
			t.Error("handshake with a listener that hangs up succeeded")
		}
		nc.Close()
		dialerNonces = append(dialerNonces, <-hellos)
	}

	for side, n := range map[string][][]byte{"listener": listenerNonces, "dialer": dialerNonces} {
		if len(n[0]) != 16 || len(n[1]) != 16 {
			t.Errorf("%s challenges are %d and %d bytes, want 16", side, len(n[0]), len(n[1]))
		}
		if bytes.Equal(n[0], n[1]) {
			t.Errorf("%s used challenge %x twice", side, n[0])
		}
	}
}

// forgery is a record an attacker wants signed by a victim's key.
type forgery struct {
	name   string
	signed []byte                                        // the bytes the record's signature covers
	valid  func(pub ed25519.PublicKey, sig []byte) error // nil if the record signed so validates
}

// forgeries are an IPNS record pointing victim's name at the attacker's
// CID, with a huge sequence number and a year of validity, and a peer
// record giving victim the attacker's address. Their signed bytes are
// rebuilt here as the ipns and record packages lay them out.
func forgeries(victim peer.ID) []forgery {
	value := cid.Sum(multicodec.Raw, []byte("attacker's content"))
	seq := uint64(1 << 40)
	until := time.Now().Add(365 * 24 * time.Hour)
	ipnsSigned := varint.Append([]byte("ipns-record:"), uint64(len(value.Bytes())))
	ipnsSigned = append(ipnsSigned, value.Bytes()...)
	ipnsSigned = varint.Append(ipnsSigned, seq)
	ipnsSigned = varint.Append(ipnsSigned, uint64(until.UnixNano()))

	addrs := []multiaddr.Multiaddr{multiaddr.MustParse("/ip4/203.0.113.7/tcp/4001")}
	peerSigned := varint.Append(append([]byte("ipfs-peer-record:"), victim...), seq)
	for _, a := range addrs {
		peerSigned = varint.Append(peerSigned, uint64(len(a.Bytes())))
		peerSigned = append(peerSigned, a.Bytes()...)
	}
	return []forgery{
		{"IPNS record", ipnsSigned, func(pub ed25519.PublicKey, sig []byte) error {
			r := ipns.Record{Value: value, Seq: seq, ValidUntil: until, PublicKey: pub, Signature: sig}
			return ipns.ValidatorFor(nil)(ipns.Name(victim), r.Marshal())
		}},
		{"peer record", peerSigned, func(pub ed25519.PublicKey, sig []byte) error {
			return record.PeerRecord{ID: victim, Addrs: addrs, Seq: seq, PublicKey: pub, Signature: sig}.Verify()
		}},
	}
}

// TestHandshakeSignsNoRecord: a peer that sends a record's signed bytes
// as its handshake challenge gets back no signature that validates the
// record, whether it dials the victim and reads the listener's answer,
// or is dialled by the victim and reads the dialer's proof.
func TestHandshakeSignsNoRecord(t *testing.T) {
	ep := listenTest(t, 1)
	victim := ep.ident
	attacker := peer.MustNewIdentity(rand.New(rand.NewSource(2)))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	for _, f := range forgeries(victim.ID) {
		if err := f.valid(victim.Public, victim.Sign(f.signed)); err != nil {
			t.Fatalf("%s: the victim's own signature does not validate it: %v", f.name, err)
		}

		// The listener's answer signs the dialer's challenge.
		c := rawDial(t, ep)
		hello := wire.Message{Type: wire.TIdentify, Key: f.signed, Peers: []wire.PeerInfo{{ID: attacker.ID}}}
		if err := wire.WriteFrame(c, hello); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadFrame(bufio.NewReader(c))
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		if f.valid(resp.IPNSData, resp.BlockData) == nil {
			t.Errorf("%s forged from the listener's answer validates", f.name)
		}

		// The dialer's proof signs the listener's challenge. The attacker
		// answers the dialer's own challenge in each form a handshake
		// might check, the bare challenge or the prefixed one, one dial
		// each: the dialer proves itself only after the form it checks.
		proofs := make(chan wire.Message, 1)
		go func() {
			for _, form := range []func([]byte) []byte{
				func(ch []byte) []byte { return ch },
				func(ch []byte) []byte { return append([]byte("ipfs-handshake:"), ch...) },
			} {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				r := bufio.NewReader(c)
				hello, err := wire.ReadFrame(r)
				if err == nil {
					wire.WriteFrame(c, wire.Message{
						Type:      wire.TIdentify,
						Key:       f.signed,
						Peers:     []wire.PeerInfo{{ID: attacker.ID}},
						IPNSData:  attacker.Public,
						BlockData: attacker.Sign(form(hello.Key)),
					})
					if proof, err := wire.ReadFrame(r); err == nil {
						proofs <- proof
					}
				}
				c.Close()
			}
		}()
		proved := 0
		for i := 0; i < 2; i++ {
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ep.handshakeOut(nc, ""); err == nil {
				proof := <-proofs
				proved++
				if f.valid(proof.IPNSData, proof.BlockData) == nil {
					t.Errorf("%s forged from the dialer's proof validates", f.name)
				}
			}
			nc.Close()
		}
		if proved != 1 {
			t.Fatalf("%s: the dialer proved itself after %d of the attacker's 2 answers, want 1", f.name, proved)
		}
	}
}

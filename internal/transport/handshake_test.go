package transport

import (
	"bufio"
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/peer"
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

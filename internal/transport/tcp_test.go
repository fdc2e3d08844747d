package transport_test

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/kbucket"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/wire"
)

func testIdentity(seed int64) peer.Identity {
	return peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
}

func newTCPPair(t *testing.T) (*transport.TCPEndpoint, *transport.TCPEndpoint) {
	t.Helper()
	a, err := transport.ListenTCP(testIdentity(1), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := transport.ListenTCP(testIdentity(2), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPDialRequest(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(func(_ context.Context, from peer.ID, req wire.Message) wire.Message {
		if from != a.LocalPeer() {
			return wire.ErrorMessage("wrong dialer identity")
		}
		return wire.Message{Type: wire.TAck, BlockData: req.Key}
	})
	conn, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.RemotePeer() != b.LocalPeer() {
		t.Error("remote peer mismatch")
	}
	resp, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing, Key: []byte("echo")})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != wire.TAck || !bytes.Equal(resp.BlockData, []byte("echo")) {
		t.Errorf("resp = %+v", resp)
	}
}

// TestTCPCloseDoesNotWaitForARequest: Close returns at once while a
// Request on the connection waits on a peer that never answers, and
// that Request then fails.
func TestTCPCloseDoesNotWaitForARequest(t *testing.T) {
	a, b := newTCPPair(t)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // before the endpoints close
	arrived := make(chan struct{}, 1)
	b.SetHandler(func(context.Context, peer.ID, wire.Message) wire.Message {
		arrived <- struct{}{}
		<-release
		return wire.Message{Type: wire.TAck}
	})
	conn, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	reqErr := make(chan error, 1)
	go func() {
		_, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing})
		reqErr <- err
	}()
	<-arrived
	closed := make(chan struct{})
	go func() {
		conn.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked behind the in-flight Request after 2s")
	}
	select {
	case err := <-reqErr:
		if err == nil {
			t.Error("Request on a closed connection = nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Request still blocked 2s after Close")
	}
}

func TestTCPIdentityMismatch(t *testing.T) {
	a, b := newTCPPair(t)
	b.SetHandler(func(_ context.Context, _ peer.ID, _ wire.Message) wire.Message {
		return wire.Message{Type: wire.TAck}
	})
	impostor := testIdentity(99).ID
	if _, err := a.Dial(context.Background(), impostor, b.Addrs()); err != transport.ErrIdentityMismatch {
		t.Errorf("err = %v, want ErrIdentityMismatch", err)
	}
}

func TestTCPDialUnreachable(t *testing.T) {
	a, _ := newTCPPair(t)
	ghost := testIdentity(50)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// No addresses at all.
	if _, err := a.Dial(ctx, ghost.ID, nil); err == nil {
		t.Error("dialing with no addresses should fail")
	}
	// A dead port.
	dead := multiaddr.ForPeer("127.0.0.1", 1, ghost.ID.String())
	if _, err := a.Dial(ctx, ghost.ID, []multiaddr.Multiaddr{dead}); err == nil {
		t.Error("dialing a closed port should fail")
	}
}

func TestTCPSequentialRequests(t *testing.T) {
	a, b := newTCPPair(t)
	var served int
	var mu sync.Mutex
	b.SetHandler(func(_ context.Context, _ peer.ID, req wire.Message) wire.Message {
		mu.Lock()
		served++
		mu.Unlock()
		return wire.Message{Type: wire.TAck, Key: req.Key}
	})
	conn, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing, Key: []byte{byte(i)}})
			if err != nil || resp.Key[0] != byte(i) {
				t.Errorf("request %d: %v %v", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
	if served != 20 {
		t.Errorf("served = %d", served)
	}
}

func TestTCPLargeBlock(t *testing.T) {
	a, b := newTCPPair(t)
	big := bytes.Repeat([]byte{0xEE}, 512*1024)
	b.SetHandler(func(_ context.Context, _ peer.ID, _ wire.Message) wire.Message {
		return wire.Message{Type: wire.TBlock, BlockData: big}
	})
	conn, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Request(context.Background(), wire.Message{Type: wire.TWantBlock})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.BlockData, big) {
		t.Error("large block corrupted in transit")
	}
}

func TestTCPClosedEndpointDial(t *testing.T) {
	a, b := newTCPPair(t)
	a.Close()
	if _, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs()); err != transport.ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// TestTCPFullNodeNetwork runs a five-node IPFS network over real TCP on
// localhost: bootstrap, publish, retrieve — the cmd/ipfs-node path.
func TestTCPFullNodeNetwork(t *testing.T) {
	const n = 5
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		ident := testIdentity(int64(100 + i))
		ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = core.New(ident, ep, core.Config{Mode: dht.ModeServer, Region: "US"})
		t.Cleanup(func() { nodes[i].Close() })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Everyone bootstraps off node 0.
	boot := []wire.PeerInfo{nodes[0].Info()}
	for i := 1; i < n; i++ {
		if err := nodes[i].Bootstrap(ctx, boot); err != nil {
			t.Fatalf("bootstrap node %d: %v", i, err)
		}
	}
	// Let node 0 learn the others too.
	for i := 1; i < n; i++ {
		nodes[0].DHT().Seed(nodes[i].Info(), kbucket.KeyForPeer(nodes[i].ID()))
	}

	data := bytes.Repeat([]byte("tcp network content "), 2000)
	pub, err := nodes[1].AddAndPublish(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := nodes[1].PublishPeerRecord(ctx); err != nil {
		t.Fatal(err)
	}
	got, res, err := nodes[4].Retrieve(ctx, pub.Cid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("content mismatch over TCP")
	}
	if res.Provider != nodes[1].ID() {
		t.Errorf("provider = %s", res.Provider.Short())
	}
}

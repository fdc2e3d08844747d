package transport_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/peer"
	"repro/internal/swarm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// waitFor polls cond until it holds, failing the test after 5 s: a
// connection's end reaches the other side's reader asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after 5s: %s", what)
		}
	}
}

// echo answers every request with TAck carrying the request's Key.
func echo(_ context.Context, _ peer.ID, req wire.Message) wire.Message {
	return wire.Message{Type: wire.TAck, Key: req.Key}
}

// newTCPSwarm starts a swarm over a loopback TCP endpoint whose handler
// echoes, and serves AutoNAT dial-backs.
func newTCPSwarm(t *testing.T, seed int64) (*swarm.Swarm, *transport.TCPEndpoint) {
	t.Helper()
	ident := testIdentity(seed)
	ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sw := swarm.New(ident, ep, nil)
	ep.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
		if req.Type == wire.TDialBack {
			return sw.HandleDialBack(ctx, req)
		}
		return echo(ctx, from, req)
	})
	t.Cleanup(func() { sw.Close() })
	return sw, ep
}

// ping sends one echoed request from a to b through a's swarm.
func ping(ctx context.Context, a, b *swarm.Swarm, addrs *transport.TCPEndpoint, tag string) error {
	resp, err := a.Request(ctx, b.Local(), addrs.Addrs(), wire.Message{Type: wire.TPing, Key: []byte(tag)})
	if err != nil {
		return err
	}
	if resp.Type != wire.TAck || string(resp.Key) != tag {
		return fmt.Errorf("answer %s %q to %q", resp.Type, resp.Key, tag)
	}
	return nil
}

// sameSocket reports whether a's and b's connections to each other are
// the two ends of one socket.
func sameSocket(a, b transport.Conn) bool {
	aLocal, aRemote := transport.SocketAddrs(a)
	bLocal, bRemote := transport.SocketAddrs(b)
	return aLocal.String() == bRemote.String() && aRemote.String() == bLocal.String()
}

// TestTCPJoinMakesOneConnectionPerPair: in a 16-node join, where every
// node bootstraps off the other 15 in turn, a later node reuses the
// connection each earlier node dialled to it, so the 120 pairs cost
// 120 connections and 120 handshakes, not 240.
func TestTCPJoinMakesOneConnectionPerPair(t *testing.T) {
	n := transport.CountConns(t)
	const size = 16
	nodes := make([]*core.Node, size)
	infos := make([]wire.PeerInfo, size)
	for i := range nodes {
		ident := testIdentity(int64(400 + i))
		ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = core.New(ident, ep, core.Config{Mode: dht.ModeServer, Region: "US"})
		infos[i] = nodes[i].Info()
		t.Cleanup(func() { nodes[i].Close() })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, node := range nodes {
		others := append(append([]wire.PeerInfo(nil), infos[:i]...), infos[i+1:]...)
		if err := node.Bootstrap(ctx, others); err != nil {
			t.Fatalf("bootstrap node %d: %v", i, err)
		}
	}
	for i, a := range nodes {
		for j, b := range nodes {
			if i != j && !a.Swarm().Connected(b.ID()) {
				t.Errorf("node %d is not connected to node %d", i, j)
			}
		}
	}
	const pairs = size * (size - 1) / 2
	if d, h := n.Dials.Load(), n.Handshakes.Load(); d != pairs || h != pairs {
		t.Errorf("the join made %d connections and %d handshakes, want %d and %d: one per pair", d, h, pairs, pairs)
	}
}

// TestTCPRequestsBothWaysOnOneConnection: once the dialler's first
// request has reached it, the listener sends its own requests back on
// the same connection, at the same time as the dialler sends; 1 000
// rounds of both at once, each answer to its own request.
func TestTCPRequestsBothWaysOnOneConnection(t *testing.T) {
	n := transport.CountConns(t)
	a, b := newTCPPair(t)
	a.SetHandler(echo)
	b.SetHandler(echo)
	adopted := make(chan transport.Conn, 1)
	b.Watch(func(c transport.Conn) { adopted <- c }, nil)
	ab, err := a.Dial(context.Background(), b.LocalPeer(), b.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ab.Request(context.Background(), wire.Message{Type: wire.TPing}); err != nil {
		t.Fatal(err)
	}
	ba := <-adopted
	if ba.RemotePeer() != a.LocalPeer() {
		t.Fatalf("adopted a connection from %s, want %s", ba.RemotePeer().Short(), a.LocalPeer().Short())
	}
	const rounds = 1000
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for _, dir := range []struct {
		name string
		c    transport.Conn
	}{{"a->b", ab}, {"b->a", ba}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tag := []byte(fmt.Sprintf("%s %d", dir.name, i))
				resp, err := dir.c.Request(ctx, wire.Message{Type: wire.TPing, Key: tag})
				if err != nil || resp.Type != wire.TAck || !bytes.Equal(resp.Key, tag) {
					t.Errorf("%s round %d: %s %q, %v", dir.name, i, resp.Type, resp.Key, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if d, h := n.Dials.Load(), n.Handshakes.Load(); d != 1 || h != 1 {
		t.Errorf("%d dials and %d handshakes, want one connection", d, h)
	}
}

// TestTCPDialRaceKeepsOneConnection: both ends Connect to each other at
// once and send requests straight away. Every request succeeds, even
// one cut by the losing connection's close, and the two ends settle on
// one connection, the same at both.
func TestTCPDialRaceKeepsOneConnection(t *testing.T) {
	sa, ea := newTCPSwarm(t, 1)
	sb, eb := newTCPSwarm(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const rounds, requests = 50, 5
	for round := 0; round < rounds; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for _, side := range []struct {
			from, to *swarm.Swarm
			ep       *transport.TCPEndpoint
		}{{sa, sb, eb}, {sb, sa, ea}} {
			for i := 0; i < requests; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if err := ping(ctx, side.from, side.to, side.ep, fmt.Sprintf("r%d.%d", round, i)); err != nil {
						t.Errorf("round %d: %s -> %s: %v", round, side.from.Local().Short(), side.to.Local().Short(), err)
					}
				}()
			}
		}
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		waitFor(t, "one socket at each end", func() bool {
			return transport.OpenSockets(ea) == 1 && transport.OpenSockets(eb) == 1
		})
		ca, _, errA := sa.Connect(ctx, sb.Local(), nil)
		cb, _, errB := sb.Connect(ctx, sa.Local(), nil)
		if errA != nil || errB != nil {
			t.Fatalf("round %d: Connect after the race: %v, %v", round, errA, errB)
		}
		if !sameSocket(ca, cb) {
			t.Fatalf("round %d: the two ends hold different connections", round)
		}
		sa.Disconnect(sb.Local())
		waitFor(t, "the disconnect to reach both ends", func() bool {
			return transport.OpenSockets(ea) == 0 && transport.OpenSockets(eb) == 0 && !sb.Connected(sa.Local())
		})
	}
}

// TestTCPRequestAfterDisconnect: a Disconnect at one end removes the
// connection from the other end's swarm too, so that end's next Request
// redials; and a Request sent before the close has reached the other
// end's reader is sent again on a fresh connection, not failed.
func TestTCPRequestAfterDisconnect(t *testing.T) {
	sa, ea := newTCPSwarm(t, 1)
	sb, eb := newTCPSwarm(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		closer, other, otherEp, closerEp := sa, sb, eb, ea
		if i%2 == 1 {
			closer, other, otherEp, closerEp = sb, sa, ea, eb
		}
		// Both ends use one connection, dialled by closer.
		if err := ping(ctx, closer, other, otherEp, "up"); err != nil {
			t.Fatal(err)
		}
		if err := ping(ctx, other, closer, closerEp, "back"); err != nil {
			t.Fatal(err)
		}
		if !other.Connected(closer.Local()) {
			t.Fatal("the reused connection does not count as connected")
		}
		closer.Disconnect(other.Local())
		if i < 10 {
			waitFor(t, "the close to remove the connection at the other end", func() bool {
				return !other.Connected(closer.Local())
			})
		}
		if err := ping(ctx, other, closer, closerEp, "after"); err != nil {
			t.Fatalf("round %d: request after the other end disconnected: %v", i, err)
		}
		other.Disconnect(closer.Local())
		waitFor(t, "no socket left", func() bool {
			return transport.OpenSockets(ea) == 0 && transport.OpenSockets(eb) == 0
		})
	}
}

// TestTCPRequestDeadlineClosesTheConnection: a request whose answer
// does not come by its context's deadline fails with that deadline, not
// as a closed connection, so the swarm drops the connection and sends
// nothing again; the handler ran once.
func TestTCPRequestDeadlineClosesTheConnection(t *testing.T) {
	sa, _ := newTCPSwarm(t, 1)
	b, eb := newTCPSwarm(t, 2)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) }) // before the endpoints close
	var calls atomic.Int32
	eb.SetHandler(func(context.Context, peer.ID, wire.Message) wire.Message {
		calls.Add(1)
		<-release
		return wire.Message{Type: wire.TAck}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := sa.Request(ctx, b.Local(), eb.Addrs(), wire.Message{Type: wire.TPing})
	if !errors.Is(err, os.ErrDeadlineExceeded) || errors.Is(err, transport.ErrClosed) {
		t.Fatalf("request past its deadline: %v, want the deadline", err)
	}
	if sa.Connected(b.Local()) {
		t.Error("the connection outlived its request's deadline")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("the handler ran %d times, want once", n)
	}
}

// TestTCPCheckNATLeavesConnectionsAlone: AutoNAT over five TCP peers
// still upgrades a dialable node to server. Each prober's fresh
// dial-back connection carries no request, so neither end adopts it:
// afterwards every pair still uses the connection the node dialled,
// whichever peer ID is lower, and no socket is left over.
func TestTCPCheckNATLeavesConnectionsAlone(t *testing.T) {
	n := transport.CountConns(t)
	mk := func(ident peer.Identity, mode dht.Mode) (*core.Node, *transport.TCPEndpoint) {
		ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		node := core.New(ident, ep, core.Config{Mode: mode, Region: "US"})
		t.Cleanup(func() { node.Close() })
		return node, ep
	}
	// The node's ID sits between the probers': a dial-back from a lower
	// ID would win a dial race, one from a higher ID would lose it.
	idents := make([]peer.Identity, 6)
	for i := range idents {
		idents[i] = testIdentity(int64(500 + i))
	}
	sort.Slice(idents, func(i, j int) bool { return idents[i].ID < idents[j].ID })
	self, selfEp := mk(idents[2], dht.ModeClient)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var probers []*core.Node
	var proberEps []*transport.TCPEndpoint
	for _, ident := range append(idents[:2:2], idents[3:]...) {
		p, ep := mk(ident, dht.ModeServer)
		probers, proberEps = append(probers, p), append(proberEps, ep)
		if _, _, err := self.Swarm().Connect(ctx, p.ID(), p.Addrs()); err != nil {
			t.Fatal(err)
		}
		// The prober adopts the connection on its first request.
		if _, err := self.Swarm().Request(ctx, p.ID(), nil, wire.Message{Type: wire.TPing}); err != nil {
			t.Fatal(err)
		}
	}
	before := make([]transport.Conn, len(probers))
	for i, p := range probers {
		before[i], _, _ = self.Swarm().Connect(ctx, p.ID(), nil)
	}
	dialsBefore := n.Dials.Load()

	if mode := self.CheckNATAndSetMode(ctx); mode != dht.ModeServer {
		t.Fatalf("mode after AutoNAT = %v, want server", mode)
	}
	dialBacks := n.Dials.Load() - dialsBefore
	if dialBacks <= swarm.AutoNATThreshold {
		t.Fatalf("%d dial-backs, want more than %d", dialBacks, swarm.AutoNATThreshold)
	}
	waitFor(t, "the dial-back sockets to close", func() bool {
		for _, ep := range proberEps {
			if transport.OpenSockets(ep) != 1 {
				return false
			}
		}
		return transport.OpenSockets(selfEp) == len(probers)
	})
	for i, p := range probers {
		now, _, err := self.Swarm().Connect(ctx, p.ID(), nil)
		if err != nil || now != before[i] {
			t.Errorf("prober %d: the node's connection changed across AutoNAT (%v)", i, err)
		}
		// Both directions still go over that connection.
		back, _, err := p.Swarm().Connect(ctx, self.ID(), nil)
		if err != nil || !sameSocket(now, back) {
			t.Errorf("prober %d does not answer over the node's connection (%v)", i, err)
		}
		if _, err := p.Swarm().Request(ctx, self.ID(), nil, wire.Message{Type: wire.TPing}); err != nil {
			t.Errorf("prober %d -> node: %v", i, err)
		}
	}
	if d := n.Dials.Load() - dialsBefore; d != dialBacks {
		t.Errorf("%d dials after AutoNAT, want only its %d dial-backs", d, dialBacks)
	}
}

// TestTCPNodesLeaveNothingBehind: after a mesh of TCP nodes has joined,
// sent requests both ways and closed, the goroutine and file-descriptor
// counts return to where they started, and a closed endpoint holds no
// socket, dialled ones included.
func TestTCPNodesLeaveNothingBehind(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // no procfs: the descriptor count is not checked
		}
		return len(fds)
	}
	runtime.GC()
	baseG, baseFD := runtime.NumGoroutine(), openFDs()

	const size = 6
	nodes := make([]*core.Node, size)
	eps := make([]*transport.TCPEndpoint, size)
	infos := make([]wire.PeerInfo, size)
	for i := range nodes {
		ident := testIdentity(int64(600 + i))
		ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
		nodes[i] = core.New(ident, ep, core.Config{Mode: dht.ModeServer, Region: "US"})
		infos[i] = nodes[i].Info()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, node := range nodes {
		others := append(append([]wire.PeerInfo(nil), infos[:i]...), infos[i+1:]...)
		if err := node.Bootstrap(ctx, others); err != nil {
			t.Fatalf("bootstrap node %d: %v", i, err)
		}
	}
	data := bytes.Repeat([]byte("both ways "), 30000)
	pub, err := nodes[1].AddAndPublish(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := nodes[4].Retrieve(ctx, pub.Cid)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("retrieve: %v", err)
	}
	for i, node := range nodes {
		node.Close()
		if s := transport.OpenSockets(eps[i]); s != 0 {
			t.Errorf("node %d holds %d sockets after Close", i, s)
		}
	}
	waitFor(t, "goroutines and descriptors back to where they started", func() bool {
		return runtime.NumGoroutine() <= baseG && openFDs() <= baseFD
	})
}

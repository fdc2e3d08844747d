package transport

import (
	"bufio"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TCPEndpoint is a real transport over net.TCP for local testnets and
// the cmd/ binaries. Connections perform a mutual challenge-response
// handshake so each side verifies that the remote holds the private key
// matching its claimed PeerID (§2.2: "the PeerID is used to verify that
// the public key used to secure the channel is the same as the one used
// to identify the peer").
type TCPEndpoint struct {
	ident peer.Identity
	ln    net.Listener
	addr  multiaddr.Multiaddr

	mu      sync.RWMutex
	handler Handler
	closed  bool
	conns   map[net.Conn]struct{}

	wg sync.WaitGroup
}

// ListenTCP starts a TCP endpoint on hostport (e.g. "127.0.0.1:0").
func ListenTCP(ident peer.Identity, hostport string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	tcpAddr := ln.Addr().(*net.TCPAddr)
	ep := &TCPEndpoint{
		ident: ident,
		ln:    ln,
		addr:  multiaddr.ForPeer(tcpAddr.IP.String(), tcpAddr.Port, ident.ID.String()),
		conns: make(map[net.Conn]struct{}),
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// LocalPeer implements Endpoint.
func (e *TCPEndpoint) LocalPeer() peer.ID { return e.ident.ID }

// Addrs implements Endpoint.
func (e *TCPEndpoint) Addrs() []multiaddr.Multiaddr {
	return []multiaddr.Multiaddr{e.addr}
}

// SetHandler implements Endpoint.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	e.handler = h
	e.mu.Unlock()
}

// Close implements Endpoint.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	err := e.ln.Close()
	e.wg.Wait()
	return err
}

// track registers an accepted connection for shutdown; it returns false
// if the endpoint is already closed.
func (e *TCPEndpoint) track(c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.conns[c] = struct{}{}
	return true
}

func (e *TCPEndpoint) untrack(c net.Conn) {
	e.mu.Lock()
	delete(e.conns, c)
	e.mu.Unlock()
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.serveConn(c)
		}()
	}
}

// handshake messages use the wire.Message container: Key carries the
// challenge nonce, IPNSData the public key, BlockData the signature
// over the peer's own nonce response.

// newNonce draws a handshake challenge from the system CSPRNG: the
// signature over it proves possession of the key only if the challenge
// cannot be predicted or made to repeat.
func newNonce() ([]byte, error) {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		return nil, fmt.Errorf("transport: handshake nonce: %w", err)
	}
	return buf, nil
}

// handshakeTimeout bounds each side's half of the handshake, so a
// connection that never completes it cannot hold a goroutine and a file
// descriptor for ever. A variable only so tests can shorten it.
var handshakeTimeout = 10 * time.Second

// serveConn performs the listener half of the handshake, then serves
// request frames until the peer disconnects. Responses are written
// straight to the connection: every frame is one Write (or one writev),
// so there is nothing for a write buffer to coalesce.
func (e *TCPEndpoint) serveConn(c net.Conn) {
	defer c.Close()
	if !e.track(c) {
		return
	}
	defer e.untrack(c)
	r := bufio.NewReader(c)
	c.SetDeadline(time.Now().Add(handshakeTimeout))

	// 1. Receive the dialer's hello with its challenge.
	hello, err := wire.ReadFrame(r)
	if err != nil || hello.Type != wire.TIdentify || len(hello.Peers) == 0 {
		return
	}
	dialerID := hello.Peers[0].ID
	challenge := hello.Key

	// 2. Answer with our identity proof and our own challenge.
	myNonce, err := newNonce()
	if err != nil {
		return
	}
	resp := wire.Message{
		Type:      wire.TIdentify,
		Key:       myNonce,
		Peers:     []wire.PeerInfo{{ID: e.ident.ID, Addrs: e.Addrs()}},
		IPNSData:  e.ident.Public,
		BlockData: e.ident.Sign(challenge),
	}
	if err := wire.WriteFrame(c, resp); err != nil {
		return
	}

	// 3. Verify the dialer's proof.
	proof, err := wire.ReadFrame(r)
	if err != nil || proof.Type != wire.TIdentify {
		return
	}
	if peer.Verify(dialerID, ed25519.PublicKey(proof.IPNSData), myNonce, proof.BlockData) != nil {
		return
	}
	c.SetDeadline(time.Time{})

	// Serve requests.
	for {
		req, err := wire.ReadFrame(r)
		if err != nil {
			return
		}
		e.mu.RLock()
		h := e.handler
		e.mu.RUnlock()
		var out wire.Message
		if h == nil {
			out = wire.ErrorMessage("no handler installed")
		} else {
			out = h(context.Background(), dialerID, req)
		}
		if err := wire.WriteFrame(c, out); err != nil {
			return
		}
	}
}

// Dial implements Endpoint.
func (e *TCPEndpoint) Dial(ctx context.Context, target peer.ID, addrs []multiaddr.Multiaddr) (Conn, error) {
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	var lastErr error = ErrPeerUnreachable
	for _, a := range addrs {
		network, hostport, err := a.DialInfo()
		if err != nil {
			lastErr = err
			continue
		}
		var d net.Dialer
		nc, err := d.DialContext(ctx, network, hostport)
		if err != nil {
			lastErr = fmt.Errorf("%w: %v", ErrDialTimeout, err)
			continue
		}
		conn, err := e.handshakeOut(nc, target)
		if err != nil {
			nc.Close()
			lastErr = err
			continue
		}
		return conn, nil
	}
	return nil, lastErr
}

// handshakeOut performs the dialer half of the handshake.
func (e *TCPEndpoint) handshakeOut(nc net.Conn, target peer.ID) (Conn, error) {
	r := bufio.NewReader(nc)
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	defer nc.SetDeadline(time.Time{})

	challenge, err := newNonce()
	if err != nil {
		return nil, err
	}
	hello := wire.Message{
		Type:  wire.TIdentify,
		Key:   challenge,
		Peers: []wire.PeerInfo{{ID: e.ident.ID, Addrs: e.Addrs()}},
	}
	if err := wire.WriteFrame(nc, hello); err != nil {
		return nil, err
	}

	resp, err := wire.ReadFrame(r)
	if err != nil || resp.Type != wire.TIdentify || len(resp.Peers) == 0 {
		return nil, ErrHandshakeTimeout
	}
	remoteID := resp.Peers[0].ID
	if target != "" && remoteID != target {
		return nil, ErrIdentityMismatch
	}
	if peer.Verify(remoteID, ed25519.PublicKey(resp.IPNSData), challenge, resp.BlockData) != nil {
		return nil, ErrIdentityMismatch
	}

	proof := wire.Message{
		Type:      wire.TIdentify,
		IPNSData:  e.ident.Public,
		BlockData: e.ident.Sign(resp.Key),
	}
	if err := wire.WriteFrame(nc, proof); err != nil {
		return nil, err
	}
	return &tcpConn{nc: nc, r: r, remote: remoteID}, nil
}

// tcpConn is a dialer-side connection; RPCs are serialized per
// connection (the swarm keeps one connection per peer, and concurrent
// walks query distinct peers).
type tcpConn struct {
	nc     net.Conn
	r      *bufio.Reader
	remote peer.ID

	mu     sync.Mutex // held across one Request's write and read
	closed atomic.Bool
}

func (c *tcpConn) RemotePeer() peer.ID { return c.remote }

// Close closes the socket without waiting for the request lock, so a
// Request blocked on a silent peer fails at once instead of holding up
// the swarm's drop and the node's shutdown.
func (c *tcpConn) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	return c.nc.Close()
}

func (c *tcpConn) Request(ctx context.Context, req wire.Message) (wire.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return wire.Message{}, ErrClosed
	}
	// On the real transport the measured wall latency IS the simulated
	// latency (the TCP path runs on the wall clock).
	start := time.Now()
	cat := CategorizeRPC(ctx, req.Type)
	record := func(err error) {
		errStr := ""
		if err != nil {
			errStr = err.Error()
		}
		telemetry.RPC(ctx, req.Type.String(), string(cat), c.remote, time.Since(start), errStr)
	}
	if dl, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(dl)
		defer c.nc.SetDeadline(time.Time{})
	}
	if err := wire.WriteFrame(c.nc, req); err != nil {
		record(err)
		return wire.Message{}, err
	}
	resp, err := wire.ReadFrame(c.r)
	if err != nil {
		record(err)
		return wire.Message{}, err
	}
	record(nil)
	return resp, nil
}

package transport

import (
	"bufio"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"os"
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
// to identify the peer"). After the handshake either end may send
// requests on the connection, whichever end dialled it (Duplex).
type TCPEndpoint struct {
	ident peer.Identity
	ln    net.Listener
	addr  multiaddr.Multiaddr

	mu          sync.RWMutex
	handler     Handler
	adopt, gone func(Conn) // the hooks Watch installs
	closed      bool
	conns       map[net.Conn]struct{} // every open socket, accepted or dialled

	wg sync.WaitGroup // the accept loop, and every connection's reader and server
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

// Watch implements Duplex.
func (e *TCPEndpoint) Watch(adopt, gone func(Conn)) {
	e.mu.Lock()
	e.adopt, e.gone = adopt, gone
	e.mu.Unlock()
}

// Close implements Endpoint. It closes every connection, dialled or
// accepted, and waits for their readers and servers.
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

// track registers a socket for shutdown and, with it, the goroutine
// that will read it; it returns false if the endpoint is already
// closed. Both happen under the lock Close takes first, so no reader
// starts after Close has begun to wait.
func (e *TCPEndpoint) track(c net.Conn) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return false
	}
	e.conns[c] = struct{}{}
	e.wg.Add(1)
	return true
}

func (e *TCPEndpoint) untrack(c net.Conn) {
	e.mu.Lock()
	delete(e.conns, c)
	e.mu.Unlock()
}

// hooks returns the handler and the swarm's hooks as installed now.
func (e *TCPEndpoint) hooks() (Handler, func(Conn), func(Conn)) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.handler, e.adopt, e.gone
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return
		}
		if !e.track(c) {
			c.Close()
			return
		}
		go e.serveConn(c)
	}
}

// countHook, when a test sets it, sees every socket Dial opens
// ("dial") and every handshake that verifies ("handshake").
var countHook func(event string)

func count(event string) {
	if countHook != nil {
		countHook(event)
	}
}

// handshake messages use the wire.Message container: Key carries the
// challenge nonce, IPNSData the public key, BlockData the signature
// over the handshakeProof of the peer's challenge.

// handshakeProof returns what each end signs, and the other verifies,
// to prove it holds its key: the peer's challenge behind a prefix that
// no other signed format (IPNS and peer records) starts with, so a
// peer cannot get a record signed by sending it as its challenge.
func handshakeProof(challenge []byte) []byte {
	return append([]byte("ipfs-handshake:"), challenge...)
}

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

// serveConn performs the listener half of the handshake on an accepted
// socket, then becomes the connection's reader.
func (e *TCPEndpoint) serveConn(nc net.Conn) {
	r := bufio.NewReader(nc)
	dialerID, ok := e.handshakeIn(nc, r)
	if !ok {
		nc.Close()
		e.untrack(nc)
		e.wg.Done()
		return
	}
	count("handshake")
	newTCPConn(e, nc, r, dialerID, false).read()
}

// handshakeIn answers the dialer's hello and verifies its proof. It
// returns the dialer's verified identity.
func (e *TCPEndpoint) handshakeIn(nc net.Conn, r *bufio.Reader) (peer.ID, bool) {
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	defer nc.SetDeadline(time.Time{})

	// 1. Receive the dialer's hello with its challenge.
	hello, err := wire.ReadFrame(r)
	if err != nil || hello.Type != wire.TIdentify || len(hello.Peers) == 0 {
		return "", false
	}
	dialerID := hello.Peers[0].ID
	challenge := hello.Key

	// 2. Answer with our identity proof and our own challenge.
	myNonce, err := newNonce()
	if err != nil {
		return "", false
	}
	resp := wire.Message{
		Type:      wire.TIdentify,
		Key:       myNonce,
		Peers:     []wire.PeerInfo{{ID: e.ident.ID, Addrs: e.Addrs()}},
		IPNSData:  e.ident.Public,
		BlockData: e.ident.Sign(handshakeProof(challenge)),
	}
	if err := wire.WriteFrame(nc, resp); err != nil {
		return "", false
	}

	// 3. Verify the dialer's proof.
	proof, err := wire.ReadFrame(r)
	if err != nil || proof.Type != wire.TIdentify {
		return "", false
	}
	if peer.Verify(dialerID, ed25519.PublicKey(proof.IPNSData), handshakeProof(myNonce), proof.BlockData) != nil {
		return "", false
	}
	return dialerID, true
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
		count("dial")
		conn, err := e.handshakeOut(nc, target)
		if err != nil {
			nc.Close()
			lastErr = err
			continue
		}
		if !e.track(nc) {
			nc.Close()
			return nil, ErrClosed
		}
		go conn.read()
		return conn, nil
	}
	return nil, lastErr
}

// handshakeOut performs the dialer half of the handshake. The caller
// starts the returned connection's reader.
func (e *TCPEndpoint) handshakeOut(nc net.Conn, target peer.ID) (*tcpConn, error) {
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
	if peer.Verify(remoteID, ed25519.PublicKey(resp.IPNSData), handshakeProof(challenge), resp.BlockData) != nil {
		return nil, ErrIdentityMismatch
	}

	proof := wire.Message{
		Type:      wire.TIdentify,
		IPNSData:  e.ident.Public,
		BlockData: e.ident.Sign(handshakeProof(resp.Key)),
	}
	if err := wire.WriteFrame(nc, proof); err != nil {
		return nil, err
	}
	return newTCPConn(e, nc, r, remoteID, true), nil
}

// errOutOfTurn closes a connection whose peer sent a request before its
// last one was answered, or an answer nobody asked for.
var errOutOfTurn = errors.New("transport: frame out of turn")

// tcpConn is one verified connection, dialled or accepted. Requests go
// both ways on it and need no IDs: mu serializes this end's requests,
// as the remote's mu does its own, so at most one is in flight each way
// (the swarm keeps one connection per peer, and concurrent walks query
// distinct peers), and a frame's type tells a request (below wire.TAck)
// from an answer. Only the request on the wire may take an answer: a
// peer that sends one nobody asked for is disconnected.
type tcpConn struct {
	ep      *TCPEndpoint
	nc      net.Conn
	r       *bufio.Reader
	remote  peer.ID
	dialled bool // this end dialled the connection

	mu      sync.Mutex        // held from one Request's write until its answer or failure
	wmu     sync.Mutex        // one frame on the socket at a time: requests and answers share it
	waiting atomic.Bool       // this end's request is on the wire; the reader clears it to hand over the answer
	resp    chan result       // capacity 1: the answer to that request, or why the reader stopped
	reqs    chan wire.Message // capacity 1: the remote's request, for serve
}

// result is what the reader hands a Request: the answer, or the error
// that stopped the reader.
type result struct {
	m   wire.Message
	err error
}

func newTCPConn(e *TCPEndpoint, nc net.Conn, r *bufio.Reader, remote peer.ID, dialled bool) *tcpConn {
	return &tcpConn{ep: e, nc: nc, r: r, remote: remote, dialled: dialled,
		resp: make(chan result, 1), reqs: make(chan wire.Message, 1)}
}

func (c *tcpConn) RemotePeer() peer.ID { return c.remote }

// Close closes the socket without waiting for the request lock, so a
// Request blocked on a silent peer fails at once instead of holding up
// the swarm's drop and the node's shutdown.
func (c *tcpConn) Close() error { return c.nc.Close() }

// read is the connection's one reader, for its whole life. An answer
// goes to the parked Request, a request to serve, and on an accepted
// connection the first request also announces the connection to the
// adopt hook. Neither hand-off blocks, since a well-behaved peer sends
// its next request only after reading the answer to its last, and
// answers only the request on the wire; any other frame closes the
// connection. So the reader never waits on a handler or a write, and
// two ends that each answer a large request cannot deadlock by both
// writing while neither reads. When it stops, the reader closes the
// socket and leaves its error in the answer slot, unless an answer is
// already there for its request.
func (c *tcpConn) read() {
	defer c.ep.wg.Done()
	c.ep.wg.Add(1) // this reader holds the group above zero
	go c.serve()
	err := c.route()
	c.Close()
	select {
	case c.resp <- result{err: err}:
	default:
	}
	close(c.reqs)
	c.ep.untrack(c.nc)
	if _, _, gone := c.ep.hooks(); gone != nil {
		gone(c)
	}
}

// route reads and routes frames until the connection fails.
func (c *tcpConn) route() error {
	announced := c.dialled
	for {
		m, err := wire.ReadFrame(c.r)
		if err != nil {
			return err
		}
		if m.Type >= wire.TAck {
			if !c.waiting.CompareAndSwap(true, false) {
				return errOutOfTurn
			}
			c.resp <- result{m: m} // empty: its last answer was taken before this request went out
			continue
		}
		if !announced {
			announced = true
			if _, adopt, _ := c.ep.hooks(); adopt != nil {
				adopt(c)
			}
		}
		select {
		case c.reqs <- m:
		default:
			return errOutOfTurn
		}
	}
}

// serve runs the handler for the remote's requests, one at a time, and
// writes each answer.
func (c *tcpConn) serve() {
	defer c.ep.wg.Done()
	for req := range c.reqs {
		h, _, _ := c.ep.hooks()
		var out wire.Message
		if h == nil {
			out = wire.ErrorMessage("no handler installed")
		} else {
			out = h(context.Background(), c.remote, req)
		}
		if err := c.write(out); err != nil {
			c.Close() // the reader stops and closes reqs
		}
	}
}

// write sends one frame.
func (c *tcpConn) write(m wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return wire.WriteFrame(c.nc, m)
}

// Request implements Conn. It fails at ctx's deadline, closing the
// connection, but does not abandon the request when ctx is cancelled
// before it: the answer would arrive with no one to take it. On a
// closed connection it fails at its write, with ErrClosed.
func (c *tcpConn) Request(ctx context.Context, req wire.Message) (wire.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// On the real transport the measured wall latency IS the simulated
	// latency (the TCP path runs on the wall clock).
	start := time.Now()
	resp, err := c.roundTrip(ctx, req)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	telemetry.RPC(ctx, req.Type.String(), string(CategorizeRPC(ctx, req.Type)), c.remote, time.Since(start), errStr)
	return resp, err
}

// roundTrip writes req and waits for its answer; the caller holds mu.
// ctx's deadline goes on the socket, bounding the write and the reader's
// wait for the answer (a runtime timer per request measured slower on
// loopback). When it passes, the reader stops and the connection
// closes, so a late answer cannot reach the next request.
func (c *tcpConn) roundTrip(ctx context.Context, req wire.Message) (wire.Message, error) {
	if deadline, ok := ctx.Deadline(); ok {
		c.nc.SetDeadline(deadline)
		defer c.nc.SetDeadline(time.Time{})
	}
	c.waiting.Store(true)
	if err := c.write(req); err != nil {
		c.Close() // a frame cut short leaves the stream unreadable
		return wire.Message{}, closedErr(err)
	}
	r := <-c.resp
	if r.err != nil {
		return wire.Message{}, closedErr(r.err)
	}
	return r.m, nil
}

// closedErr reports why a request failed: its deadline, or else the
// connection's close, which the swarm may answer by sending it again.
func closedErr(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrClosed, err)
}

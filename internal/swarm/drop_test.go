package swarm

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/transport"
	"repro/internal/wire"
)

// scriptedEndpoint hands out scriptedConns; the first one fails every
// request, later ones answer.
type scriptedEndpoint struct {
	id      peer.ID
	mu      sync.Mutex
	conns   []*scriptedConn
	entered chan struct{} // a sibling request is inside the broken conn
	release chan struct{} // closed to let the siblings' requests fail
}

func (e *scriptedEndpoint) LocalPeer() peer.ID           { return e.id }
func (e *scriptedEndpoint) Addrs() []multiaddr.Multiaddr { return nil }
func (e *scriptedEndpoint) SetHandler(transport.Handler) {}
func (e *scriptedEndpoint) Close() error                 { return nil }
func (e *scriptedEndpoint) dialled() []*scriptedConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]*scriptedConn(nil), e.conns...)
}

func (e *scriptedEndpoint) Dial(_ context.Context, target peer.ID, _ []multiaddr.Multiaddr) (transport.Conn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &scriptedConn{ep: e, remote: target, broken: len(e.conns) == 0}
	e.conns = append(e.conns, c)
	return c, nil
}

type scriptedConn struct {
	ep     *scriptedEndpoint
	remote peer.ID
	broken bool
	closed atomic.Bool
}

func (c *scriptedConn) RemotePeer() peer.ID { return c.remote }
func (c *scriptedConn) Close() error        { c.closed.Store(true); return nil }

func (c *scriptedConn) Request(_ context.Context, req wire.Message) (wire.Message, error) {
	if !c.broken {
		return wire.Message{Type: wire.TAck}, nil
	}
	if req.Type == wire.TWantBlock { // a sibling: fail only once the leader has redialled
		c.ep.entered <- struct{}{}
		<-c.ep.release
	}
	return wire.Message{}, errors.New("scripted: connection broken")
}

// TestFailedRequestClosesOnlyItsOwnConn: sibling requests share one
// connection; when it breaks, the first to notice drops it and its
// retry dials a replacement. The siblings then see the same error, and
// must close the connection that failed them — already gone — not the
// replacement now registered under the same peer.
func TestFailedRequestClosesOnlyItsOwnConn(t *testing.T) {
	const siblings = 7
	ep := &scriptedEndpoint{id: testIdentity(1).ID, entered: make(chan struct{}), release: make(chan struct{})}
	s := New(testIdentity(1), ep, nil)
	remote := testIdentity(2).ID
	ctx := context.Background()

	// Dial the connection that will break before anyone shares it, so
	// the siblings below all reuse it rather than racing to dial.
	if _, _, err := s.Connect(ctx, remote, nil); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < siblings; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Request(ctx, remote, nil, wire.Message{Type: wire.TWantBlock}); err == nil {
				t.Error("request on the broken connection succeeded")
			}
			if _, err := s.Request(ctx, remote, nil, wire.Message{Type: wire.TWantBlock}); err != nil {
				t.Errorf("sibling's retry: %v", err)
			}
		}()
	}
	for i := 0; i < siblings; i++ {
		<-ep.entered // all siblings are now inside the broken connection
	}
	// The leader fails at once, and its retry dials the replacement.
	if _, err := s.Request(ctx, remote, nil, wire.Message{Type: wire.TPing}); err == nil {
		t.Fatal("leader's request on the broken connection succeeded")
	}
	if _, err := s.Request(ctx, remote, nil, wire.Message{Type: wire.TPing}); err != nil {
		t.Fatalf("leader's retry: %v", err)
	}
	close(ep.release)
	wg.Wait()

	conns := ep.dialled()
	if len(conns) != 2 {
		t.Fatalf("%d connections dialled, want 2: the broken one and one replacement", len(conns))
	}
	if !conns[0].closed.Load() {
		t.Error("the broken connection was left open")
	}
	if conns[1].closed.Load() {
		t.Error("a sibling's failure closed the replacement connection")
	}
	s.mu.Lock()
	registered := s.conns[remote]
	s.mu.Unlock()
	if registered != transport.Conn(conns[1]) {
		t.Errorf("registered connection = %v, want the replacement", registered)
	}

	// Disconnect keeps its meaning: whichever connection is registered.
	s.Disconnect(remote)
	if !conns[1].closed.Load() || s.Connected(remote) {
		t.Error("Disconnect left the registered connection in place")
	}
}

package transport

import (
	"net"
	"sync/atomic"
	"testing"
)

// Counts is what CountConns counts.
type Counts struct {
	Dials      atomic.Int64 // sockets Dial opened
	Handshakes atomic.Int64 // handshakes that verified
}

// CountConns counts dials and handshakes for the rest of the test. Call
// it before the test's first endpoint exists: its cleanup, which stops
// the count, then runs after theirs.
func CountConns(t testing.TB) *Counts {
	n := &Counts{}
	countHook = func(event string) {
		switch event {
		case "dial":
			n.Dials.Add(1)
		case "handshake":
			n.Handshakes.Add(1)
		}
	}
	t.Cleanup(func() { countHook = nil })
	return n
}

// OpenSockets reports how many sockets e holds open.
func OpenSockets(e *TCPEndpoint) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.conns)
}

// SocketAddrs returns the local and remote address of a TCP
// connection's socket.
func SocketAddrs(c Conn) (local, remote net.Addr) {
	tc := c.(*tcpConn)
	return tc.nc.LocalAddr(), tc.nc.RemoteAddr()
}

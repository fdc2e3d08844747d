package bitswap

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/multiaddr"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/swarm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// scriptPeer is how one remote answers WANT-HAVE on a scriptEndpoint.
type scriptPeer struct {
	after time.Duration // simulated delay before the answer
	have  bool
	never bool // hangs until the request's context ends
}

// scriptEndpoint is a transport with no latency model: a dial is
// instant and a request takes exactly the remote's scripted delay on
// src, so on the scheduler a wave's virtual duration is known by
// construction.
type scriptEndpoint struct {
	src   simtime.Source
	local peer.ID
	peers map[peer.ID]scriptPeer
}

func (e *scriptEndpoint) LocalPeer() peer.ID           { return e.local }
func (e *scriptEndpoint) Addrs() []multiaddr.Multiaddr { return nil }
func (e *scriptEndpoint) SetHandler(transport.Handler) {}
func (e *scriptEndpoint) Close() error                 { return nil }
func (e *scriptEndpoint) Dial(_ context.Context, id peer.ID, _ []multiaddr.Multiaddr) (transport.Conn, error) {
	return scriptConn{e, id}, nil
}

type scriptConn struct {
	e  *scriptEndpoint
	id peer.ID
}

func (c scriptConn) RemotePeer() peer.ID { return c.id }
func (c scriptConn) Close() error        { return nil }
func (c scriptConn) Request(ctx context.Context, req wire.Message) (wire.Message, error) {
	p := c.e.peers[c.id]
	if p.never {
		p.after = 1000 * time.Hour
	}
	if err := c.e.src.Sleep(ctx, p.after); err != nil {
		return wire.Message{}, err
	}
	if p.have {
		return wire.Message{Type: wire.THave, Key: req.Key}, nil
	}
	return wire.Message{Type: wire.TDontHave, Key: req.Key}, nil
}

// TestAskWave pins the one wait askWave is written on — first HAVE, or
// every target answered, or the opportunistic timeout — with the same
// outcome on the scheduler and on the wall clock. On the scheduler the
// virtual duration is exact; on real time only which side of the timeout
// the wave returned on is asserted, with the window two orders of
// magnitude above the scripted answers.
func TestAskWave(t *testing.T) {
	simtest.BothEngines(t, testAskWave)
}

func testAskWave(t *testing.T, ctx context.Context, src simtime.Source, u time.Duration) {
	window := 100 * u
	rng := rand.New(rand.NewSource(5))
	ids := make([]peer.ID, 4)
	for i := range ids {
		ids[i] = peer.MustNewIdentity(rng).ID
	}
	self, a, b, c := ids[0], ids[1], ids[2], ids[3]
	cases := []struct {
		name      string
		peers     map[peer.ID]scriptPeer
		routed    []peer.ID // targeted candidates (not connected)
		connected []peer.ID // neighbours a broadcast reaches
		broadcast bool
		cancelAt  time.Duration // caller's context ends here (0: never)
		want      peer.ID       // the winner, "" for a miss
		took      time.Duration // exact virtual duration
		early     bool          // returns before the window closes
	}{{
		name:      "first HAVE wins with others still in flight",
		peers:     map[peer.ID]scriptPeer{a: {after: 1 * u}, b: {after: 2 * u, have: true}, c: {never: true}},
		connected: []peer.ID{a, b, c}, broadcast: true,
		want: b, took: 2 * u, early: true,
	}, {
		name:   "every routed target answers DONT_HAVE: no waiting out the window",
		peers:  map[peer.ID]scriptPeer{a: {after: 1 * u}, b: {after: 3 * u}},
		routed: []peer.ID{a, b},
		took:   3 * u, early: true,
	}, {
		name:      "every neighbour answers DONT_HAVE: a broadcast miss waits the window out",
		peers:     map[peer.ID]scriptPeer{a: {after: 1 * u}, b: {after: 3 * u}},
		connected: []peer.ID{a, b}, broadcast: true,
		took: window,
	}, {
		name:   "a target that never answers: the window closes the wave",
		peers:  map[peer.ID]scriptPeer{a: {after: 1 * u}, b: {never: true}},
		routed: []peer.ID{a, b},
		took:   window,
	}, {
		name:   "a HAVE landing with the last answer is not lost",
		peers:  map[peer.ID]scriptPeer{a: {after: 3 * u}, b: {after: 3 * u, have: true}},
		routed: []peer.ID{a, b},
		want:   b, took: 3 * u, early: true,
	}, {
		name:      "caller cancels mid-wave",
		peers:     map[peer.ID]scriptPeer{a: {after: 1 * u}, b: {never: true}},
		connected: []peer.ID{a, b}, broadcast: true,
		cancelAt: 20 * u,
		took:     20 * u, early: true,
	}}
	key := cid.Sum(multicodec.Raw, []byte("wanted"))
	for _, tc := range cases {
		ep := &scriptEndpoint{src: src, local: self, peers: tc.peers}
		sw := swarm.New(peer.Identity{ID: self}, ep, src)
		bs := New(sw, block.NewMemStore(), Config{OpportunisticTimeout: window})
		for _, id := range tc.connected {
			sw.Connect(ctx, id, nil)
		}
		var routed []wire.PeerInfo
		for _, id := range tc.routed {
			routed = append(routed, wire.PeerInfo{ID: id})
		}
		wctx, cancel := ctx, context.CancelFunc(func() {})
		if tc.cancelAt > 0 {
			wctx, cancel = src.WithTimeout(ctx, tc.cancelAt)
		}
		var st AskStats
		start := src.Stamp()
		info, asked, ok := bs.askWave(wctx, key, routed, tc.broadcast, nil, &st)
		took := src.Since(start)
		cancel()

		if ok != (tc.want != "") || info.ID != tc.want {
			t.Errorf("%s: winner = %q (ok=%v), want %q", tc.name, info.ID, ok, tc.want)
		}
		if n := len(tc.routed) + len(tc.connected); len(asked) != n || st.WantHaves != n {
			t.Errorf("%s: asked %d peers with %d WANT-HAVEs, want %d", tc.name, len(asked), st.WantHaves, n)
		}
		if st.Broadcast != tc.broadcast {
			t.Errorf("%s: Broadcast = %v, want %v", tc.name, st.Broadcast, tc.broadcast)
		}
		if simtime.SchedulerOf(src) != nil {
			if took != tc.took {
				t.Errorf("%s: took %v of virtual time, want exactly %v", tc.name, took, tc.took)
			}
		} else if tc.early != (took < window/2) || (!tc.early && took < window) {
			t.Errorf("%s: took %v simulated against a %v window, want early=%v", tc.name, took, window, tc.early)
		}
	}
}

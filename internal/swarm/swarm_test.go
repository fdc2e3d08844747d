package swarm

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/wire"
)

func testIdentity(seed int64) peer.Identity {
	return peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
}

func newPair(src simtime.Source) (*Swarm, *Swarm, *simnet.Network) {
	net := simnet.New(simnet.Config{Time: src, Seed: 1})
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, simnet.NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb := net.AddNode(b.ID, simnet.NodeOpts{Region: geo.UsWest1, Dialable: true})
	sa, sb := New(a, ea, net.Time()), New(b, eb, net.Time())
	ea.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
		if req.Type == wire.TDialBack {
			return sa.HandleDialBack(ctx, req)
		}
		return wire.Message{Type: wire.TAck}
	})
	eb.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
		if req.Type == wire.TDialBack {
			return sb.HandleDialBack(ctx, req)
		}
		return wire.Message{Type: wire.TAck}
	})
	return sa, sb, net
}

func TestAddressBookLRU(t *testing.T) {
	b := NewAddressBook(3)
	addr := func(i int) []multiaddr.Multiaddr {
		return []multiaddr.Multiaddr{multiaddr.ForPeer("1.2.3.4", 4000+i, "QmX")}
	}
	ids := make([]peer.ID, 5)
	for i := range ids {
		ids[i] = testIdentity(int64(i + 10)).ID
	}
	b.Add(ids[0], addr(0))
	b.Add(ids[1], addr(1))
	b.Add(ids[2], addr(2))
	// Touch ids[0] so ids[1] is the eviction candidate.
	if _, ok := b.Get(ids[0]); !ok {
		t.Fatal("Get(ids[0]) missing")
	}
	b.Add(ids[3], addr(3))
	if _, ok := b.Get(ids[1]); ok {
		t.Error("LRU eviction should have removed ids[1]")
	}
	if _, ok := b.Get(ids[0]); !ok {
		t.Error("recently used entry evicted")
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3", b.Len())
	}
	// Empty address lists are ignored.
	b.Add(ids[4], nil)
	if _, ok := b.Get(ids[4]); ok {
		t.Error("empty addrs should not be stored")
	}
}

// TestAddressBookRepeatedAddAllocatesNothing: an identified peer offers
// the same addresses with every RPC; the book only refreshes recency,
// and a read hands out the stored slice.
func TestAddressBookRepeatedAddAllocatesNothing(t *testing.T) {
	b := NewAddressBook(0)
	id := testIdentity(9).ID
	offered := []multiaddr.Multiaddr{multiaddr.MustParse("/ip4/1.2.3.4/tcp/4001"), multiaddr.MustParse("/ip4/10.0.0.1/udp/4001/quic")}
	b.Add(id, offered)
	if allocs := testing.AllocsPerRun(1000, func() { b.Add(id, offered) }); allocs != 0 {
		t.Errorf("Add of the stored addresses allocates %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { b.Get(id) }); allocs != 0 {
		t.Errorf("Get allocates %.0f times", allocs)
	}
	// The stored list is a copy the caller's later writes cannot reach,
	// and changed addresses replace it.
	stored, _ := b.Get(id)
	offered[0] = multiaddr.MustParse("/ip4/6.6.6.6/tcp/1")
	if again, _ := b.Get(id); !again[0].Equal(multiaddr.MustParse("/ip4/1.2.3.4/tcp/4001")) {
		t.Error("the book shares the caller's slice")
	}
	b.Add(id, offered)
	if now, _ := b.Get(id); !now[0].Equal(offered[0]) || !stored[0].Equal(multiaddr.MustParse("/ip4/1.2.3.4/tcp/4001")) {
		t.Error("changed addresses must replace the stored list without writing into the old one")
	}
}

// TestAddressBookKeepsItsOwnCopy: whether Add admits a peer or replaces
// its changed addresses, what Get answers afterwards does not follow
// later writes into the slice the caller handed in.
func TestAddressBookKeepsItsOwnCopy(t *testing.T) {
	b := NewAddressBook(0)
	id := testIdentity(11).ID
	first, second := multiaddr.MustParse("/ip4/1.2.3.4/tcp/4001"), multiaddr.MustParse("/ip4/5.6.7.8/tcp/4001")
	for _, want := range []multiaddr.Multiaddr{first, second} {
		offered := []multiaddr.Multiaddr{want}
		b.Add(id, offered)
		offered[0] = multiaddr.MustParse("/ip4/6.6.6.6/tcp/1")
		if got, ok := b.Get(id); !ok || len(got) != 1 || !got[0].Equal(want) {
			t.Fatalf("after the caller rewrote its slice, Get = %v, %v; want [%v]", got, ok, want)
		}
	}
}

func TestAddressBookDefaultCapacity(t *testing.T) {
	b := NewAddressBook(0)
	for i := 0; i < 1000; i++ {
		id := peer.ID(fmt.Sprintf("peer-%04d", i))
		b.Add(id, []multiaddr.Multiaddr{multiaddr.ForPeer("1.1.1.1", 4001, "Qm")})
	}
	if b.Len() != AddressBookCapacity {
		t.Errorf("Len = %d, want %d (the paper's 900-peer bound)", b.Len(), AddressBookCapacity)
	}
}

func TestConnectReuse(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		sa, sb, _ := newPair(s)
		c1, d1, err := sa.Connect(ctx, sb.Local(), sb.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		if d1 <= 0 {
			t.Error("first connect should report a dial duration")
		}
		c2, d2, err := sa.Connect(ctx, sb.Local(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if c1 != c2 {
			t.Error("second Connect should reuse the connection")
		}
		if d2 != 0 {
			t.Errorf("reused connection dial duration = %v, want 0", d2)
		}
		if !sa.Connected(sb.Local()) {
			t.Error("Connected should be true")
		}
	})
}

func TestConnectUsesAddressBook(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		sa, sb, _ := newPair(s)
		if _, _, err := sa.Connect(ctx, sb.Local(), sb.Addrs()); err != nil {
			t.Fatal(err)
		}
		sa.Disconnect(sb.Local())
		if sa.Connected(sb.Local()) {
			t.Fatal("Disconnect failed")
		}
		// No addresses supplied: the book must provide them.
		if _, _, err := sa.Connect(ctx, sb.Local(), nil); err != nil {
			t.Errorf("Connect from address book: %v", err)
		}
	})
}

func TestRequest(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		sa, sb, _ := newPair(s)
		resp, err := sa.Request(ctx, sb.Local(), sb.Addrs(), wire.Message{Type: wire.TPing})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TAck {
			t.Errorf("resp = %+v", resp)
		}
	})
}

func TestRequestToVanishedPeerDropsConn(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		sa, sb, net := newPair(s)
		if _, _, err := sa.Connect(ctx, sb.Local(), sb.Addrs()); err != nil {
			t.Fatal(err)
		}
		net.SetOnline(sb.Local(), false)
		if _, err := sa.Request(ctx, sb.Local(), nil, wire.Message{Type: wire.TPing}); err == nil {
			t.Fatal("request to offline peer should fail")
		}
		if sa.Connected(sb.Local()) {
			t.Error("failed request should drop the connection")
		}
	})
}

func TestDisconnectAll(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		sa, sb, _ := newPair(s)
		if _, _, err := sa.Connect(ctx, sb.Local(), sb.Addrs()); err != nil {
			t.Fatal(err)
		}
		sa.DisconnectAll()
		if len(sa.ConnectedPeers()) != 0 {
			t.Error("DisconnectAll left connections")
		}
	})
}

func TestAutoNATPublic(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		// A dialable peer surrounded by cooperative peers upgrades to
		// server once more than three dial-backs succeed.
		net := simnet.New(simnet.Config{Time: s, Seed: 2})
		self := testIdentity(100)
		eSelf := net.AddNode(self.ID, simnet.NodeOpts{Region: geo.EuCentral1, Dialable: true})
		sSelf := New(self, eSelf, net.Time())
		eSelf.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
			return wire.Message{Type: wire.TAck}
		})
		for i := 0; i < 5; i++ {
			other := testIdentity(int64(200 + i))
			eo := net.AddNode(other.ID, simnet.NodeOpts{Region: geo.UsWest1, Dialable: true})
			so := New(other, eo, net.Time())
			eo.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
				if req.Type == wire.TDialBack {
					return so.HandleDialBack(ctx, req)
				}
				return wire.Message{Type: wire.TAck}
			})
			if _, _, err := sSelf.Connect(ctx, other.ID, eo.Addrs()); err != nil {
				t.Fatal(err)
			}
		}
		if got := sSelf.CheckNAT(ctx, 5); got != NATPublic {
			t.Errorf("CheckNAT = %v, want NATPublic", got)
		}
	})
}

func TestAutoNATPrivate(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		// An undialable (NAT'd) peer stays a client: dial-backs fail.
		net := simnet.New(simnet.Config{Time: s, Seed: 3})
		self := testIdentity(100)
		eSelf := net.AddNode(self.ID, simnet.NodeOpts{Region: geo.EuCentral1, Dialable: false})
		sSelf := New(self, eSelf, net.Time())
		eSelf.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
			return wire.Message{Type: wire.TAck}
		})
		for i := 0; i < 5; i++ {
			other := testIdentity(int64(300 + i))
			eo := net.AddNode(other.ID, simnet.NodeOpts{Region: geo.UsWest1, Dialable: true})
			so := New(other, eo, net.Time())
			eo.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
				if req.Type == wire.TDialBack {
					return so.HandleDialBack(ctx, req)
				}
				return wire.Message{Type: wire.TAck}
			})
			if _, _, err := sSelf.Connect(ctx, other.ID, eo.Addrs()); err != nil {
				t.Fatal(err)
			}
		}
		if got := sSelf.CheckNAT(ctx, 5); got != NATPrivate {
			t.Errorf("CheckNAT = %v, want NATPrivate", got)
		}
	})
}

func TestCheckNATNoPeers(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := simnet.New(simnet.Config{Time: s, Seed: 4})
		self := testIdentity(1)
		eSelf := net.AddNode(self.ID, simnet.NodeOpts{Region: geo.EuCentral1, Dialable: true})
		sSelf := New(self, eSelf, net.Time())
		if got := sSelf.CheckNAT(ctx, 5); got != NATUnknown {
			t.Errorf("CheckNAT with no peers = %v, want NATUnknown", got)
		}
	})
}

func TestHandleDialBackNoAddrs(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		sa, _, _ := newPair(s)
		resp := sa.HandleDialBack(ctx, wire.Message{Type: wire.TDialBack})
		if resp.Type != wire.TError {
			t.Errorf("resp = %+v, want error", resp)
		}
	})
}

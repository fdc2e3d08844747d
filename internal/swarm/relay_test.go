package swarm

import (
	"context"
	"testing"

	"repro/internal/geo"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/wire"
)

// relayNet builds: a public relay, a NAT'd (undialable) peer, and a
// public requester.
func relayNet(src simtime.Source) (relay, natted, requester *Swarm, net *simnet.Network) {
	net = simnet.New(simnet.Config{Time: src, Seed: 6})
	mk := func(seed int64, dialable bool) *Swarm {
		ident := testIdentity(seed)
		ep := net.AddNode(ident.ID, simnet.NodeOpts{Region: geo.EuCentral1, Dialable: dialable})
		sw := New(ident, ep, net.Time())
		ep.SetHandler(func(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
			switch req.Type {
			case wire.TRelayReserve:
				return sw.HandleRelayReserve(from, req)
			case wire.TRelay:
				return sw.HandleRelay(ctx, from, req)
			case wire.TPing:
				return wire.Message{Type: wire.TAck, ErrMsg: "pong from " + sw.Local().Short()}
			}
			return wire.ErrorMessage("unhandled")
		})
		return sw
	}
	return mk(1, true), mk(2, false), mk(3, true), net
}

func TestRelayedRequestReachesNattedPeer(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		relay, natted, requester, _ := relayNet(s)

		// Direct dialing the NAT'd peer fails.
		if _, _, err := requester.Connect(ctx, natted.Local(), natted.Addrs()); err == nil {
			t.Fatal("direct dial to NAT'd peer should fail")
		}

		// The NAT'd peer reserves a slot (outbound dial opens its mapping).
		relayedAddr, err := natted.Reserve(ctx, wire.PeerInfo{ID: relay.Local(), Addrs: relay.Addrs()})
		if err != nil {
			t.Fatal(err)
		}
		if !relayedAddr.IsRelay() {
			t.Fatalf("reserved address %s is not a relay address", relayedAddr)
		}

		// The requester reaches it through the relay.
		resp, err := requester.RequestVia(ctx, relayedAddr, natted.Local(), wire.Message{Type: wire.TPing})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TAck || resp.ErrMsg != "pong from "+natted.Local().Short() {
			t.Errorf("relayed response = %+v", resp)
		}
	})
}

func TestRelayRejectsUnreservedTargets(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		relay, natted, requester, _ := relayNet(s)
		fake := multiaddr.Relay(relay.Addrs()[0], natted.Local().String())
		if _, err := requester.RequestVia(ctx, fake, natted.Local(), wire.Message{Type: wire.TPing}); err == nil {
			t.Error("relaying without a reservation should fail")
		}
	})
}

func TestReserveRequiresReachableRelay(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, natted, _, _ := relayNet(s)
		ghost := testIdentity(99)
		if _, err := natted.Reserve(ctx, wire.PeerInfo{ID: ghost.ID}); err == nil {
			t.Error("reserving at an unreachable relay should fail")
		}
	})
}

func TestHandleRelayReserveValidation(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		relay, _, requester, _ := relayNet(s)
		// Reservation must carry the requestor's own info.
		resp := relay.HandleRelayReserve(requester.Local(), wire.Message{Type: wire.TRelayReserve})
		if resp.Type != wire.TError {
			t.Error("reservation without info should be rejected")
		}
		other := testIdentity(55)
		resp = relay.HandleRelayReserve(requester.Local(), wire.Message{
			Type:  wire.TRelayReserve,
			Peers: []wire.PeerInfo{{ID: other.ID}},
		})
		if resp.Type != wire.TError {
			t.Error("reservation claiming another identity should be rejected")
		}
	})
}

func TestSplitRelayErrors(t *testing.T) {
	if _, _, err := splitRelay(multiaddr.MustParse("/ip4/1.2.3.4/tcp/1")); err == nil {
		t.Error("non-relay address should fail")
	}
	// Relay prefix without a /p2p id.
	m := multiaddr.MustParse("/ip4/1.2.3.4/tcp/1/p2p-circuit/p2p/QmX")
	if _, _, err := splitRelay(m); err == nil {
		t.Error("relay prefix without relay id should fail")
	}
}

func TestRequestViaBadInner(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		relay, natted, requester, _ := relayNet(s)
		if _, err := natted.Reserve(ctx, wire.PeerInfo{ID: relay.Local(), Addrs: relay.Addrs()}); err != nil {
			t.Fatal(err)
		}
		// Send a TRelay with a corrupt envelope directly.
		resp, err := requester.Request(ctx, relay.Local(), relay.Addrs(), wire.Message{
			Type:      wire.TRelay,
			Key:       []byte(natted.Local()),
			BlockData: []byte("not a message"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TError {
			t.Errorf("corrupt envelope resp = %+v", resp)
		}
	})
}

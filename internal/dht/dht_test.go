package dht

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/geo"
	"repro/internal/kbucket"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/swarm"
	"repro/internal/wire"
)

// testNet is a miniature seeded DHT network over the simulator.
type testNet struct {
	net   *simnet.Network
	nodes []*DHT
}

// buildNet creates n DHT servers with fully seeded routing tables.
// classFn may mark some peers with a behaviour class.
func buildNet(src simtime.Source, n int, classFn func(i int) simnet.Class) *testNet {
	net := simnet.New(simnet.Config{Time: src, Seed: 7})
	cfg := Config{QueryTimeout: 10 * time.Second}
	rng := rand.New(rand.NewSource(99))

	tn := &testNet{net: net}
	infos := make([]wire.PeerInfo, n)
	regions := []geo.Region{"US", "CN", "DE", "FR", geo.EuCentral1, geo.UsWest1}
	for i := 0; i < n; i++ {
		ident := peer.MustNewIdentity(rng)
		class := simnet.Normal
		if classFn != nil {
			class = classFn(i)
		}
		ep := net.AddNode(ident.ID, simnet.NodeOpts{
			Region:   regions[i%len(regions)],
			Dialable: true,
			Class:    class,
		})
		sw := swarm.New(ident, ep, net.Time())
		d := New(ident, sw, ModeServer, cfg)
		ep.SetHandler(d.HandleMessage)
		tn.nodes = append(tn.nodes, d)
		infos[i] = wire.PeerInfo{ID: ident.ID, Addrs: ep.Addrs()}
	}
	// Seed every node's routing table with every other peer, modelling
	// a converged long-running network.
	for _, d := range tn.nodes {
		for _, info := range infos {
			d.Seed(info, kbucket.KeyForPeer(info.ID))
		}
	}
	return tn
}

func TestHandleFindNodeReturnsClosest(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 30, nil)
		d := tn.nodes[0]
		key := []byte("some-target-key")
		resp := d.HandleMessage(ctx, tn.nodes[1].ident.ID, wire.Message{Type: wire.TFindNode, Key: key})
		if resp.Type != wire.TNodes {
			t.Fatalf("resp = %+v", resp)
		}
		if len(resp.Peers) == 0 || len(resp.Peers) > d.cfg.K {
			t.Fatalf("returned %d peers", len(resp.Peers))
		}
		// Responses must be sorted by XOR distance to the key.
		target := kbucket.KeyForBytes(key)
		for i := 1; i < len(resp.Peers); i++ {
			if kbucket.Closer(resp.Peers[i].ID, resp.Peers[i-1].ID, target) {
				t.Fatal("closestInfos not sorted by distance")
			}
		}
	})
}

func TestClientRefusesToServe(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 5, nil)
		d := tn.nodes[0]
		d.SetMode(ModeClient)
		resp := d.HandleMessage(ctx, tn.nodes[1].ident.ID, wire.Message{Type: wire.TFindNode, Key: []byte("k")})
		if resp.Type != wire.TError {
			t.Errorf("client served a request: %+v", resp)
		}
		if d.Mode() != ModeClient {
			t.Error("mode not set")
		}
	})
}

func TestProvideStoresOnClosestPeers(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 40, nil)
		publisher := tn.nodes[0]
		c := cid.Sum(multicodec.Raw, []byte("published content"))

		res, err := publisher.Provide(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.StoreOK == 0 || res.StoreAttempts == 0 {
			t.Fatalf("res = %+v", res)
		}
		if res.WalkDuration <= 0 || res.TotalDuration < res.WalkDuration {
			t.Errorf("durations: walk=%v total=%v", res.WalkDuration, res.TotalDuration)
		}

		// The record must land on (most of) the k XOR-closest nodes.
		target := kbucket.KeyForBytes(c.Bytes())
		ids := make([]peer.ID, len(tn.nodes))
		byID := make(map[peer.ID]*DHT)
		for i, d := range tn.nodes {
			ids[i] = d.ident.ID
			byID[d.ident.ID] = d
		}
		kbucket.SortByDistance(ids, target)
		stored := 0
		for _, id := range ids[:20] {
			if byID[id] == publisher {
				continue
			}
			for _, pr := range byID[id].Providers().Get(c) {
				if pr.Provider == publisher.ident.ID {
					stored++
				}
			}
		}
		if stored < 15 {
			t.Errorf("record stored on %d of the 20 closest, want >= 15", stored)
		}
	})
}

// TestWalkClosestMatchesSortByDistance checks the walk's stored
// distances against the hashing reference: on a converged net the k
// peers a walk returns are the k globally closest, in the order
// SortByDistance gives them.
func TestWalkClosestMatchesSortByDistance(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 40, nil)
		walker := tn.nodes[7]
		for _, name := range []string{"a", "b", "c", "d", "e"} {
			key := []byte("walk-target-" + name)
			target := kbucket.KeyForBytes(key)
			closest, _, err := walker.WalkClosest(ctx, target, key)
			if err != nil {
				t.Fatal(err)
			}
			var want []peer.ID
			for _, d := range tn.nodes {
				if d != walker {
					want = append(want, d.ident.ID)
				}
			}
			kbucket.SortByDistance(want, target)
			want = want[:walker.cfg.K]
			if len(closest) != len(want) {
				t.Fatalf("target %s: walk returned %d peers, want %d", name, len(closest), len(want))
			}
			for i, info := range closest {
				if info.ID != want[i] {
					t.Errorf("target %s: closest[%d] = %s, SortByDistance gives %s", name, i, info.ID.Short(), want[i].Short())
				}
			}
		}
	})
}

func TestFindProvidersAfterProvide(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 40, nil)
		publisher, requester := tn.nodes[0], tn.nodes[25]
		c := cid.Sum(multicodec.Raw, []byte("retrievable content"))
		if _, err := publisher.Provide(ctx, c); err != nil {
			t.Fatal(err)
		}
		provs, info, err := requester.FindProviders(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, p := range provs {
			if p.ID == publisher.ident.ID {
				found = true
			}
		}
		if !found {
			t.Error("publisher not among providers")
		}
		if info.Duration <= 0 {
			t.Error("walk duration not recorded")
		}
	})
}

func TestFindProvidersUnknownCid(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 20, nil)
		c := cid.Sum(multicodec.Raw, []byte("never published"))
		_, _, err := tn.nodes[3].FindProviders(ctx, c)
		if err != ErrNoProviders {
			t.Errorf("err = %v, want ErrNoProviders", err)
		}
	})
}

func TestPublishAndFindPeerRecord(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 40, nil)
		publisher, requester := tn.nodes[2], tn.nodes[30]
		if _, err := publisher.PublishPeerRecord(ctx); err != nil {
			t.Fatal(err)
		}
		info, walk, err := requester.FindPeer(ctx, publisher.ident.ID)
		if err != nil {
			t.Fatal(err)
		}
		if info.ID != publisher.ident.ID || len(info.Addrs) == 0 {
			t.Errorf("FindPeer = %+v", info)
		}
		if walk.Queried == 0 {
			t.Error("walk statistics missing")
		}
		// The requester's address book should now know the publisher (§3.2).
		if _, ok := requester.Swarm().Book().Get(publisher.ident.ID); !ok {
			t.Error("address book not updated after FindPeer")
		}
	})
}

func TestFindPeerUnknown(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 15, nil)
		ghost := peer.MustNewIdentity(rand.New(rand.NewSource(12345)))
		if _, _, err := tn.nodes[0].FindPeer(ctx, ghost.ID); err != ErrNoPeerRec {
			t.Errorf("err = %v, want ErrNoPeerRec", err)
		}
	})
}

func TestWalkToleratesDeadPeers(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		// A quarter of the network is dead: walks must still converge and
		// report failures.
		tn := buildNet(s, 40, func(i int) simnet.Class {
			if i%4 == 3 {
				return simnet.DeadDial
			}
			return simnet.Normal
		})
		c := cid.Sum(multicodec.Raw, []byte("content in a flaky network"))
		publisher := tn.nodes[0]
		res, err := publisher.Provide(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if res.Walk.Failed == 0 {
			t.Error("expected some failed queries with 25% dead peers")
		}
		// Retrieval still works from another live node.
		provs, _, err := tn.nodes[1].FindProviders(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if len(provs) == 0 {
			t.Error("no providers found")
		}
	})
}

func TestDeadPeersLengthenPublication(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		clean := buildNet(s, 30, nil)
		dirty := buildNet(s, 30, func(i int) simnet.Class {
			if i%3 == 2 {
				return simnet.DeadDial
			}
			return simnet.Normal
		})
		c := cid.Sum(multicodec.Raw, []byte("timing probe"))
		resClean, err := clean.nodes[0].Provide(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		resDirty, err := dirty.nodes[0].Provide(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if resDirty.TotalDuration <= resClean.TotalDuration {
			t.Errorf("dead peers should slow publication: clean=%v dirty=%v",
				resClean.TotalDuration, resDirty.TotalDuration)
		}
	})
}

func TestIPNSPutGet(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 30, nil)
		key := []byte("ipns-key-1")
		payload := []byte("signed-ipns-record")
		for _, d := range tn.nodes {
			d.SetIPNSValidator(func(k, data []byte) error { return nil })
		}
		n, err := tn.nodes[0].PutIPNS(ctx, key, payload)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("stored on zero peers")
		}
		got, err := tn.nodes[17].GetIPNS(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("GetIPNS = %q", got)
		}
	})
}

func TestIPNSValidatorRejects(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 10, nil)
		reject := func(k, data []byte) error { return context.DeadlineExceeded }
		d := tn.nodes[0]
		d.SetIPNSValidator(reject)
		resp := d.HandleMessage(ctx, tn.nodes[1].ident.ID, wire.Message{
			Type: wire.TPutIPNS, Key: []byte("k"), IPNSData: []byte("bad"),
		})
		if resp.Type != wire.TError {
			t.Errorf("invalid record accepted: %+v", resp)
		}
	})
}

func TestGetIPNSMissing(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 10, nil)
		if _, err := tn.nodes[0].GetIPNS(ctx, []byte("nope")); err != ErrNoIPNSRec {
			t.Errorf("err = %v, want ErrNoIPNSRec", err)
		}
	})
}

func TestBootstrapPopulatesTable(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 25, nil)
		ident := peer.MustNewIdentity(rand.New(rand.NewSource(4242)))
		ep := tn.net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true})
		sw := swarm.New(ident, ep, tn.net.Time())
		d := New(ident, sw, ModeServer, Config{})
		ep.SetHandler(d.HandleMessage)

		boot := []wire.PeerInfo{
			{ID: tn.nodes[0].ident.ID, Addrs: tn.nodes[0].Swarm().Addrs()},
			{ID: tn.nodes[1].ident.ID, Addrs: tn.nodes[1].Swarm().Addrs()},
		}
		if err := d.Bootstrap(ctx, boot); err != nil {
			t.Fatal(err)
		}
		if d.Table().Len() < 10 {
			t.Errorf("table has %d peers after bootstrap, want >= 10", d.Table().Len())
		}
	})
}

func TestCrawlRPC(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 20, nil)
		d := tn.nodes[0]
		resp := d.HandleMessage(ctx, tn.nodes[1].ident.ID, wire.Message{Type: wire.TCrawl})
		if resp.Type != wire.TNodes {
			t.Fatalf("resp = %+v", resp)
		}
		if len(resp.Peers) != d.Table().Len() {
			t.Errorf("crawl returned %d peers, table has %d", len(resp.Peers), d.Table().Len())
		}
	})
}

func TestHandleMessageErrors(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 5, nil)
		d := tn.nodes[0]
		from := tn.nodes[1].ident.ID
		for _, req := range []wire.Message{
			{Type: wire.TAddProvider, Key: []byte("bad-cid")},
			{Type: wire.TAddProvider, Key: cid.Sum(multicodec.Raw, []byte("x")).Bytes()}, // no provider
			{Type: wire.TGetProviders, Key: []byte("bad-cid")},
			{Type: wire.TPutPeerRecord},
			{Type: wire.Type(200)},
		} {
			if resp := d.HandleMessage(ctx, from, req); resp.Type != wire.TError {
				t.Errorf("req %s should error, got %+v", req.Type, resp)
			}
		}
	})
}

func TestRequesterLearnedByResponder(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 10, nil)
		newcomer := peer.MustNewIdentity(rand.New(rand.NewSource(777)))
		ep := tn.net.AddNode(newcomer.ID, simnet.NodeOpts{Region: "US", Dialable: true})
		sw := swarm.New(newcomer, ep, tn.net.Time())
		d := New(newcomer, sw, ModeServer, Config{})
		ep.SetHandler(d.HandleMessage)

		responder := tn.nodes[0]
		resp := responder.HandleMessage(ctx, newcomer.ID, wire.Message{
			Type:  wire.TFindNode,
			Key:   []byte("k"),
			Peers: []wire.PeerInfo{{ID: newcomer.ID, Addrs: ep.Addrs()}},
		})
		if resp.Type != wire.TNodes {
			t.Fatal(resp.ErrMsg)
		}
		if !responder.Table().Contains(newcomer.ID) {
			t.Error("responder should learn server requesters (§2.3)")
		}
	})
}

package core_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/geo"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/testnet"
	"repro/internal/wire"
)

func buildSmallNet(t *testing.T, n int) *testnet.Testnet {
	t.Helper()
	return testnet.Build(testnet.Config{
		N:    n,
		Seed: 11,
		// Keep the small test network clean so retrievals are fast.
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
}

func TestAddCatLocal(t *testing.T) {
	tn := buildSmallNet(t, 20)
	node := tn.Nodes[0]
	data := bytes.Repeat([]byte("local content "), 1000)
	root, err := node.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := node.Cat(root)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("Cat mismatch")
	}
	if !node.Has(root) {
		t.Error("Has should be true after Add")
	}
}

func TestPublishRequiresLocalContent(t *testing.T) {
	tn := buildSmallNet(t, 10)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		c := cid.Sum(multicodec.Raw, []byte("elsewhere"))
		if _, err := tn.Nodes[0].Publish(ctx, c); err == nil {
			t.Error("publishing unknown content should fail")
		}
	})
}

func TestPublishAndRetrieve(t *testing.T) {
	tn := buildSmallNet(t, 40)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher := tn.Nodes[0]
		requester := tn.Nodes[25]
		data := bytes.Repeat([]byte{0xAB}, 64*1024)

		pub, err := publisher.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		if pub.StoreOK == 0 {
			t.Fatal("no provider records stored")
		}
		if err := publisher.PublishPeerRecord(ctx); err != nil {
			t.Fatal(err)
		}

		got, res, err := requester.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("retrieved content mismatch")
		}
		if res.Provider != publisher.ID() {
			t.Errorf("provider = %s, want publisher", res.Provider.Short())
		}
		if res.Bytes != len(data) {
			t.Errorf("bytes = %d", res.Bytes)
		}
		if res.Total <= 0 || res.Fetch <= 0 {
			t.Errorf("durations: %+v", res)
		}
		// No connected peers had it: the Bitswap phase must have run and
		// missed, then the provider walk found it.
		if res.BitswapHit {
			t.Error("BitswapHit should be false for a DHT retrieval")
		}
		if res.ProviderWalk <= 0 {
			t.Error("provider walk duration missing")
		}
		// The requester now has the content locally.
		if !requester.Has(pub.Cid) {
			t.Error("retrieved DAG should be in the local store")
		}
	})
}

func TestRetrieveLocalIsInstant(t *testing.T) {
	tn := buildSmallNet(t, 10)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		node := tn.Nodes[0]
		data := []byte("mine already")
		root, err := node.Add(data)
		if err != nil {
			t.Fatal(err)
		}
		got, res, err := node.Retrieve(ctx, root)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) || res.Discover() != 0 {
			t.Errorf("local retrieve: %+v", res)
		}
	})
}

func TestRetrieveNotFound(t *testing.T) {
	tn := buildSmallNet(t, 15)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		c := cid.Sum(multicodec.Raw, []byte("never published anywhere"))
		ctx, cancel := tn.Sched.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		_, _, err := tn.Nodes[0].Retrieve(ctx, c)
		if err == nil {
			t.Error("retrieving unpublished content should fail")
		}
	})
}

func TestRetrieveViaBitswapNeighbour(t *testing.T) {
	// When the requester is already connected to a peer holding the
	// content, the opportunistic Bitswap phase resolves it without any
	// DHT walk (§3.2 step 4).
	tn := buildSmallNet(t, 20)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		holder, requester := tn.Nodes[0], tn.Nodes[1]
		data := bytes.Repeat([]byte{7}, 2048)
		root, err := holder.Add(data)
		if err != nil {
			t.Fatal(err)
		}
		// Connect without publishing anything.
		if _, _, err := requester.Swarm().Connect(ctx, holder.ID(), holder.Addrs()); err != nil {
			t.Fatal(err)
		}
		got, res, err := requester.Retrieve(ctx, root)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("content mismatch")
		}
		if !res.BitswapHit {
			t.Error("expected a Bitswap hit")
		}
		if res.ProviderWalk != 0 {
			t.Error("no DHT walk should have run")
		}
	})
}

func TestBitswapMissCostsTimeout(t *testing.T) {
	// With connected peers that do NOT have the content, the serial
	// discovery pays the full 1 s Bitswap timeout before the DHT
	// (§6.2: "retrievals include an extra 1 s").
	tn := buildSmallNet(t, 30)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher, bystander, requester := tn.Nodes[0], tn.Nodes[1], tn.Nodes[2]
		data := []byte("content far away")
		pub, err := publisher.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		publisher.PublishPeerRecord(ctx)
		if _, _, err := requester.Swarm().Connect(ctx, bystander.ID(), bystander.Addrs()); err != nil {
			t.Fatal(err)
		}
		_, res, err := requester.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Fatal(err)
		}
		if res.BitswapHit {
			t.Fatal("bystander should not have the content")
		}
		if res.BitswapPhase != time.Second {
			t.Errorf("Bitswap phase = %v, want exactly the 1s timeout", res.BitswapPhase)
		}
		if res.Stretch() <= res.StretchWithoutBitswap() {
			t.Error("removing the Bitswap timeout must reduce the stretch")
		}
	})
}

func TestParallelDiscoverySkipsBitswapPenalty(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 30, Seed: 12,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
		ParallelDiscovery: true,
	})
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher, bystander, requester := tn.Nodes[0], tn.Nodes[1], tn.Nodes[2]
		pub, err := publisher.AddAndPublish(ctx, []byte("race me"))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := requester.Swarm().Connect(ctx, bystander.ID(), bystander.Addrs()); err != nil {
			t.Fatal(err)
		}
		_, res, err := requester.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Fatal(err)
		}
		// The DHT walk should win well before the 1 s Bitswap timeout.
		if res.Discover() >= time.Second {
			t.Errorf("parallel discovery took %v, want < 1s", res.Discover())
		}
	})
}

func TestIPNSPublishResolve(t *testing.T) {
	tn := buildSmallNet(t, 30)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher, resolver := tn.Nodes[3], tn.Nodes[20]
		v1, err := publisher.Add([]byte("site version 1"))
		if err != nil {
			t.Fatal(err)
		}
		if err := publisher.PublishIPNS(ctx, v1); err != nil {
			t.Fatal(err)
		}
		got, err := resolver.ResolveIPNS(ctx, publisher.ID())
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(v1) {
			t.Errorf("ResolveIPNS = %s, want %s", got, v1)
		}
		// Mutate: same name, new value.
		v2, err := publisher.Add([]byte("site version 2"))
		if err != nil {
			t.Fatal(err)
		}
		if err := publisher.PublishIPNS(ctx, v2); err != nil {
			t.Fatal(err)
		}
		got2, err := resolver.ResolveIPNS(ctx, publisher.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got2.Equal(v1) {
			// Records propagate to the k closest; the resolver may see
			// either version depending on which server answers first, but
			// a fresh walk reaching the closest peers should see v2.
			t.Logf("resolver saw stale version; acceptable but worth noting")
		}
	})
}

func TestCheckNATAndSetMode(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := simnet.New(simnet.Config{Time: s, Seed: 5})
		mk := func(seed int64, dialable bool) *core.Node {
			ident := peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
			ep := net.AddNode(ident.ID, simnet.NodeOpts{Region: "US", Dialable: dialable})
			return core.New(ident, ep, core.Config{Mode: dht.ModeClient, Time: net.Time(), Region: "US"})
		}
		natted := mk(1, false)
		var others []*core.Node
		for i := int64(0); i < 5; i++ {
			o := mk(10+i, true)
			others = append(others, o)
			if _, _, err := natted.Swarm().Connect(ctx, o.ID(), o.Addrs()); err != nil {
				t.Fatal(err)
			}
		}
		if mode := natted.CheckNATAndSetMode(ctx); mode != dht.ModeClient {
			t.Errorf("NAT'd node mode = %v, want client", mode)
		}
		public := mk(2, true)
		for _, o := range others {
			if _, _, err := public.Swarm().Connect(ctx, o.ID(), o.Addrs()); err != nil {
				t.Fatal(err)
			}
		}
		if mode := public.CheckNATAndSetMode(ctx); mode != dht.ModeServer {
			t.Errorf("public node mode = %v, want server", mode)
		}
	})
}

// TestRetiredRelayCodesAnswerError: request codes 14 and 15 belonged to
// a circuit relay no node serves any more. A node answers them through
// the DHT's default branch with TError, however well-formed the request.
func TestRetiredRelayCodesAnswerError(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := simnet.New(simnet.Config{Time: s, Seed: 5})
		mk := func(seed int64) *core.Node {
			ident := peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
			ep := net.AddNode(ident.ID, simnet.NodeOpts{Region: "US", Dialable: true})
			return core.New(ident, ep, core.Config{Mode: dht.ModeServer, Time: net.Time(), Region: "US"})
		}
		server, client, target := mk(1), mk(2), mk(3)
		for _, req := range []wire.Message{
			// A reservation carrying the sender's own info.
			{Type: wire.Type(14), Peers: []wire.PeerInfo{client.Info()}},
			// A forward of a well-formed ping to a peer the server can dial.
			{Type: wire.Type(15), Key: []byte(target.ID()), BlockData: wire.Message{Type: wire.TPing}.Marshal()},
		} {
			resp, err := client.Swarm().Request(ctx, server.ID(), server.Addrs(), req)
			if err != nil {
				t.Fatal(err)
			}
			if want := "unhandled dht message " + req.Type.String(); resp.Type != wire.TError || resp.ErrMsg != want {
				t.Errorf("code %d answered %s %q, want ERROR %q", uint8(req.Type), resp.Type, resp.ErrMsg, want)
			}
		}
	})
}

func TestVantageNodeRetrievesAcrossRegions(t *testing.T) {
	tn := buildSmallNet(t, 40)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		pubV := tn.AddVantage(geo.EuCentral1, 100)
		getV := tn.AddVantage(geo.ApSoutheast2, 101)
		pub, err := pubV.AddAndPublish(ctx, bytes.Repeat([]byte{1}, 16*1024))
		if err != nil {
			t.Fatal(err)
		}
		if err := pubV.PublishPeerRecord(ctx); err != nil {
			t.Fatal(err)
		}
		testnet.FlushVantage(getV)
		data, res, err := getV.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 16*1024 {
			t.Errorf("len = %d", len(data))
		}
		if res.Total <= 0 {
			t.Error("no total duration")
		}
	})
}

func TestRetrieveRoutedSessionSkipsBroadcast(t *testing.T) {
	// With the accelerated router holding a fresh snapshot, the session
	// peer comes from the router in one hop: no blind WANT-HAVE
	// broadcast, no provider walk, and strictly fewer WANT-HAVEs than
	// the broadcast would have cost.
	tn := buildSmallNet(t, 60)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher := tn.AddVantageRouting("DE", 600, routing.KindAccelerated, nil)
		getter := tn.AddVantageRouting("US", 601, routing.KindAccelerated, nil)
		for _, n := range []*core.Node{publisher, getter} {
			if _, err := n.RefreshRoutingSnapshot(ctx); err != nil {
				t.Fatalf("refresh: %v", err)
			}
		}
		pub, err := publisher.AddAndPublish(ctx, bytes.Repeat([]byte{5}, 32*1024))
		if err != nil {
			t.Fatal(err)
		}
		// Connect bystanders that a blind broadcast would have asked.
		for i := 0; i < 3; i++ {
			b := tn.Nodes[i]
			if _, _, err := getter.Swarm().Connect(ctx, b.ID(), b.Addrs()); err != nil {
				t.Fatal(err)
			}
		}

		data, res, err := getter.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 32*1024 {
			t.Errorf("len = %d", len(data))
		}
		if !res.RoutedSession || res.BitswapHit {
			t.Errorf("result = %+v, want a routed session", res)
		}
		if res.ProviderWalk != 0 {
			t.Error("routed session should not pay a provider walk")
		}
		// One targeted WANT-HAVE to the known provider; the confirmed
		// session then starts with WANT-BLOCK directly. The broadcast would
		// have cost one per connected bystander.
		if res.WantHaves != 1 {
			t.Errorf("WantHaves = %d, want exactly 1 targeted ask", res.WantHaves)
		}
		if res.WantBlocks == 0 {
			t.Error("transfer should count WANT-BLOCK messages")
		}
	})
}

func TestRetrieveRouterWithoutProvidersFallsBackToBroadcast(t *testing.T) {
	// Satellite: a routed session whose router returns zero peers must
	// fall back to the opportunistic broadcast. The accelerated getter
	// has a snapshot, but the content was never published anywhere —
	// only a connected neighbour holds it.
	tn := buildSmallNet(t, 40)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		holder := tn.Nodes[0]
		getter := tn.AddVantageRouting("US", 610, routing.KindAccelerated, nil)
		if _, err := getter.RefreshRoutingSnapshot(ctx); err != nil {
			t.Fatalf("refresh: %v", err)
		}
		data := bytes.Repeat([]byte{9}, 4096)
		root, err := holder.Add(data) // added, never published
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := getter.Swarm().Connect(ctx, holder.ID(), holder.Addrs()); err != nil {
			t.Fatal(err)
		}

		got, res, err := getter.Retrieve(ctx, root)
		if err != nil {
			t.Fatalf("zero routed providers must fall back to the broadcast: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("content mismatch")
		}
		if !res.BitswapHit || res.RoutedSession {
			t.Errorf("result = %+v, want a broadcast hit", res)
		}
	})
}

// TestRetrievedBytesAreTheCallersOwn: blocks own their bytes and are
// shared, uncopied, between a provider's store, the simulated wire and
// the requester's store, so what Retrieve returns must be a fresh
// copy. Overwriting every returned byte leaves every block on both
// nodes — the provider's above all — matching its CID, for a single-leaf
// object (whose root block is the whole payload) and a multi-block one.
func TestRetrievedBytesAreTheCallersOwn(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 20, Seed: 11,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	holder, requester := tn.Nodes[0], tn.Nodes[1]
	type object struct {
		root      cid.Cid
		data, got []byte
	}
	var objects []*object
	for _, size := range []int{2048, 600 << 10} {
		o := &object{data: make([]byte, size)}
		rand.New(rand.NewSource(int64(size))).Read(o.data)
		root, err := holder.Add(o.data)
		if err != nil {
			t.Fatal(err)
		}
		o.root = root
		objects = append(objects, o)
	}
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		if _, _, err := requester.Swarm().Connect(ctx, holder.ID(), holder.Addrs()); err != nil {
			t.Fatal(err)
		}
		for _, o := range objects {
			got, _, err := requester.Retrieve(ctx, o.root)
			if err != nil {
				t.Fatalf("size %d: retrieve: %v", len(o.data), err)
			}
			o.got = got
		}
	})
	for _, o := range objects {
		if !bytes.Equal(o.got, o.data) {
			t.Fatalf("size %d: retrieved bytes differ", len(o.data))
		}
		for i := range o.got {
			o.got[i] ^= 0xff
		}
		for name, n := range map[string]*core.Node{"provider": holder, "requester": requester} {
			cids, err := merkledag.AllCids(n.Store(), o.root)
			if err != nil {
				t.Fatalf("size %d: %s: %v", len(o.data), name, err)
			}
			for _, c := range cids {
				blk, err := n.Store().Get(c)
				if err != nil {
					t.Fatal(err)
				}
				if !c.Verify(blk.Data()) {
					t.Errorf("size %d: writing the retrieved bytes corrupted the %s's block %s", len(o.data), name, c)
				}
			}
		}
		// And the provider still serves the object it was given.
		if again, err := holder.Cat(o.root); err != nil || !bytes.Equal(again, o.data) {
			t.Errorf("size %d: provider's copy changed: %v", len(o.data), err)
		}
	}
}

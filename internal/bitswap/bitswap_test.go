package bitswap

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/geo"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

type testPeer struct {
	ident peer.Identity
	sw    *swarm.Swarm
	store *block.MemStore
	bs    *Bitswap
	info  wire.PeerInfo
}

// buildPeers builds n connected-capable Bitswap peers on a simulated
// network running on src.
func buildPeers(src simtime.Source, n int) (*simnet.Network, []*testPeer) {
	net := simnet.New(simnet.Config{Time: src, Seed: 3})
	rng := rand.New(rand.NewSource(8))
	peers := make([]*testPeer, n)
	for i := range peers {
		ident := peer.MustNewIdentity(rng)
		ep := net.AddNode(ident.ID, simnet.NodeOpts{Region: "US", Dialable: true})
		sw := swarm.New(ident, ep, src)
		store := block.NewMemStore()
		bs := New(sw, store, Config{})
		ep.SetHandler(bs.HandleMessage)
		peers[i] = &testPeer{ident: ident, sw: sw, store: store, bs: bs, info: wire.PeerInfo{ID: ident.ID, Addrs: ep.Addrs()}}
	}
	return net, peers
}

func TestHandleWantHave(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 2)
		holder := ps[0]
		blk := block.New(multicodec.Raw, []byte("held"))
		holder.store.Put(blk)

		resp := holder.bs.HandleMessage(ctx, ps[1].ident.ID, wire.Message{Type: wire.TWantHave, Key: blk.Cid().Bytes()})
		if resp.Type != wire.THave {
			t.Errorf("resp = %s, want HAVE", resp.Type)
		}
		missing := cid.Sum(multicodec.Raw, []byte("missing"))
		resp = holder.bs.HandleMessage(ctx, ps[1].ident.ID, wire.Message{Type: wire.TWantHave, Key: missing.Bytes()})
		if resp.Type != wire.TDontHave {
			t.Errorf("resp = %s, want DONT_HAVE", resp.Type)
		}
		if resp := holder.bs.HandleMessage(ctx, ps[1].ident.ID, wire.Message{Type: wire.TWantHave, Key: []byte("junk")}); resp.Type != wire.TError {
			t.Errorf("bad cid resp = %s", resp.Type)
		}
	})
}

func TestFetchBlockFullExchange(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 2)
		holder, requester := ps[0], ps[1]
		blk := block.New(multicodec.Raw, []byte("wanted block"))
		holder.store.Put(blk)

		mctx, meter := transport.WithMeter(ctx)
		got, err := requester.bs.NewSession(mctx, holder.info).Get(blk.Cid())
		if err != nil {
			t.Fatal(err)
		}
		// The full exchange: one WANT-HAVE handshake, one WANT-BLOCK.
		if wh, wb := meter.Count(wire.TWantHave), meter.Count(wire.TWantBlock); wh != 1 || wb != 1 {
			t.Errorf("metered WANT-HAVE, WANT-BLOCK = %d, %d, want 1, 1", wh, wb)
		}
		if !bytes.Equal(got.Data(), blk.Data()) {
			t.Error("data mismatch")
		}
		// The block is now stored locally: requester becomes a holder.
		if !requester.store.Has(blk.Cid()) {
			t.Error("fetched block not stored")
		}
		sent, recv, bytesSent, bytesRecv := holder.bs.Stats()
		if sent != 1 || bytesSent != int64(blk.Size()) {
			t.Errorf("holder stats: sent=%d bytes=%d", sent, bytesSent)
		}
		_, recv, _, bytesRecv = requester.bs.Stats()
		if recv != 1 || bytesRecv != int64(blk.Size()) {
			t.Errorf("requester stats: recv=%d bytes=%d", recv, bytesRecv)
		}
	})
}

func TestFetchBlockNotHeld(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 2)
		missing := cid.Sum(multicodec.Raw, []byte("nope"))
		if _, err := ps[1].bs.NewSession(ctx, ps[0].info).Get(missing); err != ErrNotFound {
			t.Errorf("err = %v, want ErrNotFound", err)
		}
	})
}

// withPeers runs body as the root of a scheduler run with n peers built
// on a simulated network.
func withPeers(t *testing.T, n int, body func(ctx context.Context, ps []*testPeer)) {
	t.Helper()
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, n)
		body(ctx, ps)
	})
}

// tracedAsk runs AskConnected under a trace on p's clock and returns
// its outcome and the wall of its bitswap-ask span.
func tracedAsk(ctx context.Context, p *testPeer, c cid.Cid) (wire.PeerInfo, AskStats, time.Duration, error) {
	tctx, root := telemetry.NewRecorder(p.sw.Time()).StartTrace(ctx, "ask")
	info, st, err := p.bs.AskConnected(tctx, c)
	root.End()
	return info, st, root.Descendants("bitswap-ask")[0].Wall(), err
}

func TestAskConnectedFindsHolder(t *testing.T) {
	withPeers(t, 4, func(ctx context.Context, ps []*testPeer) {
		requester := ps[0]
		holder := ps[2]
		blk := block.New(multicodec.Raw, []byte("neighbourhood content"))
		holder.store.Put(blk)
		for _, p := range ps[1:] {
			if _, _, err := requester.sw.Connect(ctx, p.ident.ID, p.info.Addrs); err != nil {
				t.Error(err)
				return
			}
		}
		info, st, took, err := tracedAsk(ctx, requester, blk.Cid())
		if err != nil {
			t.Error(err)
			return
		}
		if info.ID != holder.ident.ID {
			t.Errorf("holder = %s", info.ID.Short())
		}
		// One same-region round trip, far inside the 1 s window.
		if took <= 0 || took > 500*time.Millisecond {
			t.Errorf("opportunistic hit took %v", took)
		}
		if !st.Broadcast || st.Routed {
			t.Errorf("stats = %+v, want a broadcast hit", st)
		}
		if st.WantHaves != 3 {
			t.Errorf("broadcast sent %d WANT-HAVEs, want one per connected peer (3)", st.WantHaves)
		}
	})
}

func TestAskConnectedTimesOut(t *testing.T) {
	withPeers(t, 3, func(ctx context.Context, ps []*testPeer) {
		requester := ps[0]
		for _, p := range ps[1:] {
			if _, _, err := requester.sw.Connect(ctx, p.ident.ID, p.info.Addrs); err != nil {
				t.Error(err)
				return
			}
		}
		missing := cid.Sum(multicodec.Raw, []byte("nobody has this"))
		_, _, took, err := tracedAsk(ctx, requester, missing)
		if err != ErrTimeout {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
		// The full 1 s opportunistic timeout must elapse (§3.2), and on
		// virtual time it is exactly that.
		if took != DefaultOpportunisticTimeout {
			t.Errorf("timeout took %v simulated, want exactly %v", took, DefaultOpportunisticTimeout)
		}
	})
}

func TestAskConnectedNoPeers(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 1)
		missing := cid.Sum(multicodec.Raw, []byte("x"))
		if _, _, err := ps[0].bs.AskConnected(ctx, missing); err != ErrTimeout {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
}

func TestSessionAssemblesDAG(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 2)
		holder, requester := ps[0], ps[1]
		data := bytes.Repeat([]byte("dag content "), 3000)
		root, err := merkledag.NewBuilder(holder.store, 4096, 8).Add(data)
		if err != nil {
			t.Fatal(err)
		}
		session := requester.bs.NewSession(ctx, holder.info)
		got, err := merkledag.Assemble(session, root)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("assembled content mismatch")
		}
		// All blocks should now be local; a second assemble needs no network.
		if _, err := merkledag.Assemble(requester.store, root); err != nil {
			t.Errorf("blocks not stored locally: %v", err)
		}
	})
}

func TestCorruptBlockRejected(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		// A peer serving bytes that do not match the CID must be caught by
		// self-certification (§2.1).
		net := simnet.New(simnet.Config{Time: s, Seed: 9})
		rng := rand.New(rand.NewSource(10))
		evil := peer.MustNewIdentity(rng)
		victim := peer.MustNewIdentity(rng)

		evilEp := net.AddNode(evil.ID, simnet.NodeOpts{Region: geo.Region("US"), Dialable: true})
		evilEp.SetHandler(func(_ context.Context, _ peer.ID, req wire.Message) wire.Message {
			switch req.Type {
			case wire.TWantHave:
				return wire.Message{Type: wire.THave, Key: req.Key}
			case wire.TWantBlock:
				return wire.Message{Type: wire.TBlock, Key: req.Key, BlockData: []byte("corrupted data")}
			}
			return wire.ErrorMessage("?")
		})

		vEp := net.AddNode(victim.ID, simnet.NodeOpts{Region: geo.Region("US"), Dialable: true})
		vSw := swarm.New(victim, vEp, net.Time())
		vBs := New(vSw, block.NewMemStore(), Config{})

		want := cid.Sum(multicodec.Raw, []byte("the real content"))
		_, err := vBs.NewSession(ctx, wire.PeerInfo{ID: evil.ID, Addrs: evilEp.Addrs()}).Get(want)
		if err == nil {
			t.Fatal("corrupt block accepted")
		}
	})
}

// fakeRouting scripts a SessionRouting for ask/session tests.
type fakeRouting struct {
	mu        sync.Mutex
	peers     []wire.PeerInfo
	err       error
	broadcast bool
	onlyKey   string // when set, only this CID key has session peers
	consults  int
}

func (f *fakeRouting) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.consults++
	if f.err != nil {
		return nil, f.err
	}
	if f.onlyKey != "" && c.Key() != f.onlyKey {
		return nil, errors.New("fakeRouting: no session peers for that cid")
	}
	peers := f.peers
	if n > 0 && len(peers) > n {
		peers = peers[:n]
	}
	return peers, nil
}

func (f *fakeRouting) WantBroadcast() bool { return f.broadcast }

func (f *fakeRouting) setPeers(peers []wire.PeerInfo) {
	f.mu.Lock()
	f.peers = peers
	f.mu.Unlock()
}

// ownEngine builds a second engine over a peer's swarm/store, so a test
// installs its routing and counts its messages on an engine nothing
// else has used.
func ownEngine(p *testPeer) *Bitswap {
	return New(p.sw, p.store, Config{})
}

func TestAskConnectedRoutedSkipsBroadcast(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 4)
		requester, holder := ps[0], ps[3]
		blk := block.New(multicodec.Raw, []byte("routed content"))
		holder.store.Put(blk)
		// Connected bystanders that would receive the blind broadcast.
		for _, p := range ps[1:3] {
			if _, _, err := requester.sw.Connect(ctx, p.ident.ID, p.info.Addrs); err != nil {
				t.Fatal(err)
			}
		}
		// The router knows the (unconnected) holder; policy skips broadcast.
		bs := ownEngine(requester)
		bs.SetRouting(&fakeRouting{peers: []wire.PeerInfo{holder.info}})

		info, st, err := bs.AskConnected(ctx, blk.Cid())
		if err != nil {
			t.Fatal(err)
		}
		if info.ID != holder.ident.ID {
			t.Errorf("session peer = %s, want the routed holder", info.ID.Short())
		}
		if !st.Routed || st.Broadcast {
			t.Errorf("stats = %+v, want routed hit without broadcast", st)
		}
		if st.WantHaves != 1 {
			t.Errorf("routed ask sent %d WANT-HAVEs, want exactly 1 (the candidate)", st.WantHaves)
		}
	})
}

func TestAskConnectedZeroRoutedPeersFallsBackToBroadcast(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		// Satellite: a routed session whose router returns zero peers must
		// fall back to the opportunistic broadcast rather than erroring.
		_, ps := buildPeers(s, 3)
		requester, holder := ps[0], ps[2]
		blk := block.New(multicodec.Raw, []byte("broadcast fallback"))
		holder.store.Put(blk)
		for _, p := range ps[1:] {
			if _, _, err := requester.sw.Connect(ctx, p.ident.ID, p.info.Addrs); err != nil {
				t.Fatal(err)
			}
		}
		bs := ownEngine(requester)
		bs.SetRouting(&fakeRouting{}) // zero candidates, skip-broadcast policy

		info, st, err := bs.AskConnected(ctx, blk.Cid())
		if err != nil {
			t.Fatalf("zero routed peers must not fail discovery: %v", err)
		}
		if info.ID != holder.ident.ID {
			t.Errorf("holder = %s", info.ID.Short())
		}
		if !st.Broadcast || st.Routed {
			t.Errorf("stats = %+v, want a broadcast fallback hit", st)
		}
	})
}

func TestAskConnectedStaleRoutedPeersFallBackToBroadcast(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net, ps := buildPeers(s, 3)
		requester, stale, holder := ps[0], ps[1], ps[2]
		blk := block.New(multicodec.Raw, []byte("stale candidate"))
		holder.store.Put(blk)
		if _, _, err := requester.sw.Connect(ctx, holder.ident.ID, holder.info.Addrs); err != nil {
			t.Fatal(err)
		}
		// The router's only candidate has departed (churn).
		net.SetOnline(stale.ident.ID, false)
		bs := ownEngine(requester)
		bs.SetRouting(&fakeRouting{peers: []wire.PeerInfo{stale.info}})

		info, st, err := bs.AskConnected(ctx, blk.Cid())
		if err != nil {
			t.Fatalf("stale routed candidate must fail open into the broadcast: %v", err)
		}
		if info.ID != holder.ident.ID {
			t.Errorf("holder = %s", info.ID.Short())
		}
		if !st.Broadcast {
			t.Error("fallback broadcast should have run")
		}
	})
}

func TestAskConnectedDeduplicatesConcurrentBroadcasts(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 4)
		requester := ps[0]
		for _, p := range ps[1:] {
			if _, _, err := requester.sw.Connect(ctx, p.ident.ID, p.info.Addrs); err != nil {
				t.Fatal(err)
			}
		}
		bs := ownEngine(requester)
		missing := cid.Sum(multicodec.Raw, []byte("wanted twice at once"))

		g := simtime.NewGroup(s)
		var suppressed atomic.Int32
		askOnce := func(ctx context.Context) {
			_, st, err := bs.AskConnected(ctx, missing)
			if err != ErrTimeout {
				t.Errorf("err = %v, want ErrTimeout", err)
			}
			suppressed.Add(int32(st.Suppressed))
		}
		// The leader first: in lockstep it runs until it parks in its
		// wave, flight registered, before the duplicates (spawned after
		// it) get the floor, so every one of them joins.
		for i := 0; i < 4; i++ {
			g.Go(ctx, askOnce)
		}
		g.Wait(ctx)
		if took := s.Now().Sub(simtest.Epoch); took < DefaultOpportunisticTimeout || took >= 2*DefaultOpportunisticTimeout {
			t.Errorf("four concurrent asks took %v, want one %v window shared between them", took, DefaultOpportunisticTimeout)
		}

		sent, supp := bs.MsgStats()
		if sent != 3 {
			t.Errorf("sent %d WANT-HAVEs, want one broadcast of 3 with duplicates joined", sent)
		}
		if supp == 0 || int32(supp) != suppressed.Load() {
			t.Errorf("suppressed = %d (per-call sum %d), want the joined callers' fan-out counted", supp, suppressed.Load())
		}

		// A later ask for the same CID broadcasts again: deduplication is
		// per-in-flight ask, not a cache.
		if _, _, err := bs.AskConnected(ctx, missing); err != ErrTimeout {
			t.Errorf("follow-up ask err = %v", err)
		}
		if sent2, _ := bs.MsgStats(); sent2 != 6 {
			t.Errorf("follow-up ask sent %d total WANT-HAVEs, want 6", sent2)
		}
	})
}

func TestConfirmedSessionSkipsHandshake(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 2)
		holder, requester := ps[0], ps[1]
		data := bytes.Repeat([]byte("confirmed dag "), 2000)
		root, err := merkledag.NewBuilder(holder.store, 4096, 8).Add(data)
		if err != nil {
			t.Fatal(err)
		}
		mctx, meter := transport.WithMeter(ctx)
		session := requester.bs.NewSession(mctx, holder.info).Confirm()
		got, err := merkledag.Assemble(session, root)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Error("assembled content mismatch")
		}
		st := session.Stats()
		if wh := meter.Count(wire.TWantHave); wh != 0 {
			t.Errorf("confirmed session sent %d WANT-HAVEs, want 0 (discovery already shook hands)", wh)
		}
		if st.WantBlocks == 0 || meter.Count(wire.TWantBlock) != st.WantBlocks {
			t.Errorf("session counted %d WANT-BLOCK transfers, meter %d: want the same, nonzero",
				st.WantBlocks, meter.Count(wire.TWantBlock))
		}
	})
}

func TestSessionFailsOverViaRouter(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net, ps := buildPeers(s, 3)
		primary, backup, requester := ps[0], ps[1], ps[2]
		data := bytes.Repeat([]byte("replicated dag "), 3000)
		root, err := merkledag.NewBuilder(primary.store, 4096, 8).Add(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := merkledag.NewBuilder(backup.store, 4096, 8).Add(data); err != nil {
			t.Fatal(err)
		}
		requester.bs.SetRouting(&fakeRouting{peers: []wire.PeerInfo{primary.info, backup.info}})

		session := requester.bs.NewSession(ctx, primary.info)
		// Fetch the root from the primary, then churn it away mid-session.
		if _, err := session.Get(root); err != nil {
			t.Fatalf("first block: %v", err)
		}
		net.SetOnline(primary.ident.ID, false)

		got, err := merkledag.Assemble(session, root)
		if err != nil {
			t.Fatalf("assemble after provider churn: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("assembled content mismatch")
		}
		st := session.Stats()
		if st.Failovers != 1 {
			t.Errorf("failovers = %d, want exactly 1 switch to the backup", st.Failovers)
		}
	})
}

func TestSessionFailoverAnchorsOnRoot(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		// Provider records exist for DAG roots only. With the root block
		// already local (a partial earlier retrieval), the first network
		// fetch is a mid-DAG block — fail-over must still look up providers
		// by the root the session was created for.
		net, ps := buildPeers(s, 3)
		primary, backup, requester := ps[0], ps[1], ps[2]
		data := bytes.Repeat([]byte("anchored dag "), 3000)
		root, err := merkledag.NewBuilder(primary.store, 4096, 8).Add(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := merkledag.NewBuilder(backup.store, 4096, 8).Add(data); err != nil {
			t.Fatal(err)
		}
		// The root block is already local; its children are not.
		if _, err := requester.bs.NewSession(ctx, primary.info).Get(root); err != nil {
			t.Fatal(err)
		}
		// The router only knows providers for the root CID.
		requester.bs.SetRouting(&fakeRouting{peers: []wire.PeerInfo{backup.info}, onlyKey: root.Key()})
		net.SetOnline(primary.ident.ID, false)

		session := requester.bs.NewSession(ctx, primary.info).ForRoot(root)
		got, err := merkledag.Assemble(session, root)
		if err != nil {
			t.Fatalf("assemble with root-anchored fail-over: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("assembled content mismatch")
		}
		if st := session.Stats(); st.Failovers != 1 {
			t.Errorf("failovers = %d, want 1", st.Failovers)
		}
	})
}

func TestSessionFailoverWithoutRouterStillFails(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net, ps := buildPeers(s, 2)
		holder, requester := ps[0], ps[1]
		blk := block.New(multicodec.Raw, []byte("gone"))
		holder.store.Put(blk)
		net.SetOnline(holder.ident.ID, false)
		session := requester.bs.NewSession(ctx, holder.info)
		if _, err := session.Get(blk.Cid()); err == nil {
			t.Error("session with no router and a dead provider must fail")
		}
	})
}

// TestAskStatsConsultMiss checks the consult-outcome flag callers hand
// forward to skip the duplicate one-hop FindProviders probe: set on a
// consult miss (error or zero candidates), clear when the router fed
// candidates, clear with no router at all.
func TestAskStatsConsultMiss(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		_, ps := buildPeers(s, 2)
		requester, holder := ps[0], ps[1]
		blk := block.New(multicodec.Raw, []byte("consult miss flag"))
		holder.store.Put(blk)
		if _, _, err := requester.sw.Connect(ctx, holder.ident.ID, holder.info.Addrs); err != nil {
			t.Fatal(err)
		}

		// Router declines: miss recorded, broadcast still finds the holder.
		bs := ownEngine(requester)
		bs.SetRouting(&fakeRouting{err: errors.New("no candidates")})
		if _, st, err := bs.AskConnected(ctx, blk.Cid()); err != nil || !st.ConsultMiss {
			t.Errorf("declining router: err=%v stats=%+v, want a hit with ConsultMiss", err, st)
		}

		// Router answers zero peers: also a miss.
		bs.SetRouting(&fakeRouting{})
		if _, st, err := bs.AskConnected(ctx, blk.Cid()); err != nil || !st.ConsultMiss {
			t.Errorf("empty router: err=%v stats=%+v, want a hit with ConsultMiss", err, st)
		}

		// Router feeds the holder: no miss.
		bs.SetRouting(&fakeRouting{peers: []wire.PeerInfo{holder.info}})
		if _, st, err := bs.AskConnected(ctx, blk.Cid()); err != nil || st.ConsultMiss {
			t.Errorf("feeding router: err=%v stats=%+v, want a routed hit without ConsultMiss", err, st)
		}

		// No router configured: nothing was consulted, nothing missed.
		bs.SetRouting(nil)
		if _, st, err := bs.AskConnected(ctx, blk.Cid()); err != nil || st.ConsultMiss {
			t.Errorf("routerless: err=%v stats=%+v, want a broadcast hit without ConsultMiss", err, st)
		}
	})
}

func TestSessionFailsOverViaStreamedCandidates(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		// Fail-over candidates supplied by the streaming provider lookup are
		// tried before (and here, instead of) a router consult: no session
		// routing is installed at all, and the switch costs one WANT-HAVE
		// handshake with the candidate.
		net, ps := buildPeers(s, 3)
		primary, backup, requester := ps[0], ps[1], ps[2]
		data := bytes.Repeat([]byte("streamed dag "), 3000)
		root, err := merkledag.NewBuilder(primary.store, 4096, 8).Add(data)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := merkledag.NewBuilder(backup.store, 4096, 8).Add(data); err != nil {
			t.Fatal(err)
		}

		mctx, meter := transport.WithMeter(ctx)
		session := requester.bs.NewSession(mctx, primary.info).
			WithCandidates(func() []wire.PeerInfo { return []wire.PeerInfo{backup.info} })
		if _, err := session.Get(root); err != nil {
			t.Fatalf("first block: %v", err)
		}
		net.SetOnline(primary.ident.ID, false)

		got, err := merkledag.Assemble(session, root)
		if err != nil {
			t.Fatalf("assemble with streamed candidates: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Error("assembled content mismatch")
		}
		st := session.Stats()
		if st.Failovers != 1 {
			t.Errorf("failovers = %d, want 1 switch to the streamed candidate", st.Failovers)
		}
		if wh := meter.Count(wire.TWantHave); wh != 2 {
			t.Errorf("session sent %d WANT-HAVEs, want 2: the primary's handshake and the candidate's", wh)
		}
	})
}

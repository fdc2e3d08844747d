package routing_test

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/kbucket"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fakeRouter scripts a Router for composite tests: it waits delay on
// src (or a cancelled context), then returns its canned outcome. Like a
// real router it counts its requests into the operation's meter as it
// launches them, before the wait: a lookup or a session consult one
// GET_PROVIDERS, a publication provideSpend FIND_NODEs.
type fakeRouter struct {
	src          simtime.Source
	name         string
	delay        time.Duration
	err          error
	provider     peer.ID
	broadcast    bool
	provideSpend int
	cancelled    atomic.Bool
	calls        atomic.Int32
	sessions     atomic.Int32
}

func (f *fakeRouter) Name() string { return f.name }

func (f *fakeRouter) wait(ctx context.Context) error {
	f.calls.Add(1)
	if err := simtime.OrWall(f.src).Sleep(ctx, f.delay); err != nil {
		f.cancelled.Store(true)
		return err
	}
	return f.err
}

func (f *fakeRouter) Provide(ctx context.Context, c cid.Cid) (routing.ProvideResult, error) {
	transport.MeterOf(ctx).Add(wire.TFindNode, f.provideSpend)
	if err := f.wait(ctx); err != nil {
		return routing.ProvideResult{}, err
	}
	return routing.ProvideResult{StoreAttempts: 1, StoreOK: 1}, nil
}

func (f *fakeRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (routing.ProvideManyResult, error) {
	if err := f.wait(ctx); err != nil {
		return routing.ProvideManyResult{CIDs: len(cids)}, err
	}
	return routing.ProvideManyResult{
		CIDs: len(cids), Provided: len(cids), Targets: 1, StoreRPCs: 1, Acked: 1,
	}, nil
}

func (f *fakeRouter) FindProvidersStream(ctx context.Context, c cid.Cid) routing.ProviderSeq {
	return routing.LazyStream(func() ([]wire.PeerInfo, error) {
		transport.MeterOf(ctx).Add(wire.TGetProviders, 1)
		if err := f.wait(ctx); err != nil {
			return nil, err
		}
		return []wire.PeerInfo{{ID: f.provider}}, nil
	})
}

func (f *fakeRouter) SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, error) {
	f.sessions.Add(1)
	transport.MeterOf(ctx).Add(wire.TGetProviders, 1)
	if err := f.wait(ctx); err != nil {
		return nil, err
	}
	if f.provider == "" {
		return nil, routing.ErrNoSessionPeers
	}
	return []wire.PeerInfo{{ID: f.provider}}, nil
}

func (f *fakeRouter) WantBroadcast() bool { return f.broadcast }

func testCid(s string) cid.Cid { return cid.Sum(multicodec.Raw, []byte(s)) }

// oneShard is the indexer set of a flat indexer list: one shard whose
// replicas are the indexers, in order.
func oneShard(indexers ...wire.PeerInfo) *routing.IndexerSet {
	return routing.NewIndexerSet([][]wire.PeerInfo{indexers})
}

// findProviders reads r's provider stream the way a blocking lookup
// would: it stops at the first provider-carrying response and returns
// that batch — the §3.2 "terminate on the first record-hosting node"
// semantics — and the lookup requests the stream launched, read off a
// meter opened for it.
func findProviders(ctx context.Context, r routing.Router, c cid.Cid) ([]wire.PeerInfo, int, error) {
	mctx, meter := transport.WithMeter(ctx)
	var out []wire.PeerInfo
	err := r.FindProvidersStream(mctx, c)(func(batch []wire.PeerInfo) bool {
		out = append(out, batch...)
		return false
	})
	lookups := meter.Count(wire.TGetProviders)
	if len(out) > 0 {
		return out, lookups, nil
	}
	if err == nil {
		err = routing.ErrNoProviders
	}
	return nil, lookups, err
}

// sessionPeers runs r's session consult for one candidate and returns
// the lookup requests it launched, read off a meter opened for it.
func sessionPeers(ctx context.Context, r routing.Router, c cid.Cid) ([]wire.PeerInfo, int, error) {
	mctx, meter := transport.WithMeter(ctx)
	peers, err := r.SessionPeers(mctx, c, 1)
	return peers, meter.Count(wire.TGetProviders), err
}

func TestParallelFirstWinnerCancelsLosers(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		fast := &fakeRouter{src: s, name: "fast", delay: time.Millisecond, provider: peer.ID("winner")}
		slow := &fakeRouter{src: s, name: "slow", delay: time.Minute, provider: peer.ID("loser")}
		r := routing.NewParallel(s, fast, slow)

		providers, lookups, err := findProviders(ctx, r, testCid("race"))
		if err != nil {
			t.Fatalf("FindProviders: %v", err)
		}
		if len(providers) != 1 || providers[0].ID != peer.ID("winner") {
			t.Fatalf("providers = %v, want the fast member's", providers)
		}
		if lookups != 2 {
			t.Errorf("race counted %d lookup requests, want the winner's and the cancelled loser's", lookups)
		}
		// The slow member must have observed cancellation rather than run
		// out its full delay: the race lasted exactly the winner's 1 ms.
		if !slow.cancelled.Load() {
			t.Error("slow member was not cancelled after the fast one won")
		}
		if took := s.Now().Sub(simtest.Epoch); took != time.Millisecond {
			t.Errorf("the race took %v, want exactly the winner's 1ms", took)
		}
	})
}

func TestParallelProvideFirstSuccessWins(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		failing := &fakeRouter{src: s, name: "failing", delay: time.Millisecond, err: errors.New("boom")}
		ok := &fakeRouter{src: s, name: "ok", delay: 5 * time.Millisecond}
		res, err := routing.NewParallel(s, failing, ok).Provide(ctx, testCid("pub"))
		if err != nil {
			t.Fatalf("Provide: %v", err)
		}
		if res.StoreOK != 1 {
			t.Errorf("StoreOK = %d, want the succeeding member's result", res.StoreOK)
		}
	})
}

func TestParallelAllFailReturnsFirstError(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		e1 := errors.New("first")
		a := &fakeRouter{src: s, name: "a", delay: time.Millisecond, err: e1}
		b := &fakeRouter{src: s, name: "b", delay: 2 * time.Millisecond, err: errors.New("second")}
		if _, err := routing.NewParallel(s, a, b).Provide(ctx, testCid("x")); !errors.Is(err, e1) {
			t.Errorf("err = %v, want first member's error", err)
		}
		if _, _, err := findProviders(ctx, routing.NewParallel(s, a, b), testCid("x")); err == nil {
			t.Error("FindProviders should fail when every member fails")
		}
	})
}

// countingRouter wraps a Router and counts calls, so fallback use is
// observable.
type countingRouter struct {
	inner    routing.Router
	provides atomic.Int32
	finds    atomic.Int32
	sessions atomic.Int32
}

func (c *countingRouter) Name() string { return c.inner.Name() }

func (c *countingRouter) Provide(ctx context.Context, id cid.Cid) (routing.ProvideResult, error) {
	c.provides.Add(1)
	return c.inner.Provide(ctx, id)
}

func (c *countingRouter) ProvideMany(ctx context.Context, cids []cid.Cid) (routing.ProvideManyResult, error) {
	c.provides.Add(1)
	return c.inner.ProvideMany(ctx, cids)
}

func (c *countingRouter) FindProvidersStream(ctx context.Context, id cid.Cid) routing.ProviderSeq {
	c.finds.Add(1)
	return c.inner.FindProvidersStream(ctx, id)
}

func (c *countingRouter) SessionPeers(ctx context.Context, id cid.Cid, n int) ([]wire.PeerInfo, error) {
	c.sessions.Add(1)
	return c.inner.SessionPeers(ctx, id, n)
}

func (c *countingRouter) WantBroadcast() bool { return c.inner.WantBroadcast() }

func TestIndexerRoundTrip(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := simnet.New(simnet.Config{Time: s, Seed: 3})
		rng := rand.New(rand.NewSource(9))

		newSwarm := func() *swarm.Swarm {
			ident := peer.MustNewIdentity(rng)
			ep := net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true})
			return swarm.New(ident, ep, net.Time())
		}
		ixIdent := peer.MustNewIdentity(rng)
		ixEp := net.AddNode(ixIdent.ID, simnet.NodeOpts{Region: "US", Dialable: true})
		ix := routing.NewIndexer(ixIdent, ixEp, routing.IndexerConfig{Time: net.Time()})

		pubSw, getSw := newSwarm(), newSwarm()
		cfg := routing.IndexerRouterConfig{}
		pub := routing.NewIndexerRouter(pubSw, oneShard(ix.Info()), nil, cfg)
		// The getter's fallback must never fire on a hit.
		fb := &countingRouter{inner: &fakeRouter{src: s, name: "fb", err: errors.New("unused")}}
		get := routing.NewIndexerRouter(getSw, oneShard(ix.Info()), fb, cfg)

		c := testCid("indexed content")
		res, err := pub.Provide(ctx, c)
		if err != nil {
			t.Fatalf("Provide: %v", err)
		}
		if res.StoreOK != 1 || res.Walk.Queried != 0 {
			t.Errorf("provide result = %+v, want one direct store and no walk", res)
		}
		if ix.Len() != 1 {
			t.Fatalf("indexer holds %d records, want 1", ix.Len())
		}

		providers, lookups, err := findProviders(ctx, get, c)
		if err != nil {
			t.Fatalf("FindProviders: %v", err)
		}
		if len(providers) == 0 || providers[0].ID != pubSw.Local() {
			t.Fatalf("providers = %v, want the publisher", providers)
		}
		if len(providers[0].Addrs) == 0 {
			t.Error("provider addrs missing: the indexer should return its address book entry")
		}
		if lookups != 1 {
			t.Errorf("lookup used %d messages, want exactly 1 (one-hop)", lookups)
		}
		if fb.finds.Load() != 0 {
			t.Error("fallback consulted despite an indexer hit")
		}
	})
}

func buildCleanNet(t *testing.T, n int, seed int64) *testnet.Testnet {
	t.Helper()
	return testnet.Build(testnet.Config{
		N: n, Seed: seed,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
}

func TestIndexerMissFallsBackToDHT(t *testing.T) {
	tn := buildCleanNet(t, 120, 31)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {

		// Publish through the plain DHT so the indexer never hears of it.
		publisher := tn.AddVantage("DE", 900)
		data := []byte("only on the dht")
		pub, err := publisher.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatalf("publish: %v", err)
		}

		ix := tn.AddIndexer("US", 901)
		getter := tn.AddVantage("US", 902)
		fb := &countingRouter{inner: routing.NewDHT(getter.DHT())}
		r := routing.NewIndexerRouter(getter.Swarm(), oneShard(ix.Info()), fb,
			routing.IndexerRouterConfig{})

		providers, lookups, err := findProviders(ctx, r, pub.Cid)
		if err != nil {
			t.Fatalf("FindProviders after indexer miss: %v", err)
		}
		if len(providers) == 0 || providers[0].ID != publisher.ID() {
			t.Fatalf("providers = %v, want the DHT publisher", providers)
		}
		if fb.finds.Load() != 1 {
			t.Errorf("fallback consulted %d times, want exactly 1", fb.finds.Load())
		}
		// The count must include both the wasted indexer RPC and the
		// fallback walk.
		if lookups < 2 {
			t.Errorf("lookup counted %d messages, want the indexer miss plus the walk", lookups)
		}
	})
}

// TestAcceleratedOneHopLookup runs on virtual time: the snapshot crawl's
// dial timeouts cannot be blown by host load, so "the crawl found the
// network" is a property of the seed.
func TestAcceleratedOneHopLookup(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 120, Seed: 33,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	publisher := tn.AddVantageRouting("DE", 910, routing.KindAccelerated, nil)
	getter := tn.AddVantageRouting("US", 911, routing.KindAccelerated, nil)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		if _, err := publisher.RefreshRoutingSnapshot(ctx); err != nil {
			t.Errorf("publisher refresh: %v", err)
			return
		}
		if n, err := getter.RefreshRoutingSnapshot(ctx); err != nil || n < 100 {
			t.Errorf("getter refresh: snapshot %d peers, err %v", n, err)
			return
		}

		data := []byte("one hop away")
		pub, err := publisher.AddAndPublish(ctx, data)
		if err != nil {
			t.Errorf("publish: %v", err)
			return
		}
		// One-hop publication: no walk phase at all.
		if pub.Walk.Queried != 0 || pub.WalkDuration != 0 {
			t.Errorf("accelerated publish ran a walk: %+v", pub.ProvideResult)
		}
		if pub.StoreOK == 0 {
			t.Error("no records stored")
			return
		}

		providers, lookups, err := findProviders(ctx, getter.Router(), pub.Cid)
		if err != nil {
			t.Errorf("FindProviders: %v", err)
			return
		}
		if len(providers) == 0 || providers[0].ID != publisher.ID() {
			t.Errorf("providers = %v, want publisher", providers)
			return
		}
		if lookups > 6 {
			t.Errorf("accelerated lookup used %d messages, want a single small wave", lookups)
		}

		// End-to-end retrieval through the node API.
		got, rres, err := getter.Retrieve(ctx, pub.Cid)
		if err != nil || string(got) != string(data) {
			t.Errorf("retrieve: %v", err)
			return
		}
		if rres.LookupMsgs > 6 {
			t.Errorf("retrieval lookup used %d messages, want one-hop", rres.LookupMsgs)
		}
	})
}

func TestAcceleratedSurvivesStaleSnapshotUnderChurn(t *testing.T) {
	tn := buildCleanNet(t, 150, 35)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {

		publisher := tn.AddVantageRouting("DE", 920, routing.KindAccelerated, nil)
		getter := tn.AddVantageRouting("US", 921, routing.KindAccelerated, nil)
		if _, err := publisher.RefreshRoutingSnapshot(ctx); err != nil {
			t.Fatalf("refresh: %v", err)
		}
		if _, err := getter.RefreshRoutingSnapshot(ctx); err != nil {
			t.Fatalf("refresh: %v", err)
		}

		// A third of the network departs after the snapshot was taken: both
		// clients now operate on a stale view.
		for i := 0; i < 50; i++ {
			tn.SetOnline(tn.Nodes[i].ID(), false)
		}

		data := []byte("published against a stale snapshot")
		pub, err := publisher.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatalf("publish with stale snapshot: %v", err)
		}
		if pub.StoreOK == 0 {
			t.Fatal("no records stored despite live majority")
		}

		got, rres, err := getter.Retrieve(ctx, pub.Cid)
		if err != nil || string(got) != string(data) {
			t.Fatalf("retrieve with stale snapshot: %v", err)
		}
		if rres.Provider != publisher.ID() {
			t.Errorf("provider = %s, want publisher", rres.Provider.Short())
		}
	})
}

func TestConfigRoutingSelector(t *testing.T) {
	tn := buildCleanNet(t, 60, 37)
	ix := tn.AddIndexer("US", 930)
	cases := []struct {
		kind routing.Kind
		set  *routing.IndexerSet
		want string
	}{
		{routing.KindDHT, oneShard(ix.Info()), "dht"},
		{routing.KindAccelerated, oneShard(ix.Info()), "accelerated"},
		{routing.KindIndexer, oneShard(ix.Info()), "indexer"},
		{routing.KindParallel, oneShard(ix.Info()), "parallel(dht+accelerated+indexer)"},
		// Without an indexer set the race has no indexer member.
		{routing.KindParallel, nil, "parallel(dht+accelerated)"},
	}
	for i, tc := range cases {
		node := tn.AddVantageRouting("DE", int64(940+i), tc.kind, tc.set)
		if got := node.Router().Name(); got != tc.want {
			t.Errorf("kind %q built router %q, want %q", tc.kind, got, tc.want)
		}
		if tc.kind == routing.KindAccelerated && node.Accelerated() == nil {
			t.Error("accelerated node lost its Accelerated() accessor")
		}
	}
	// The default is the DHT baseline.
	node := tn.AddVantage("DE", 950)
	if got := node.Router().Name(); got != "dht" {
		t.Errorf("default router = %q, want dht", got)
	}
	if !strings.HasPrefix(routing.NewParallel(tn.Sched, routing.NewDHT(node.DHT())).Name(), "parallel(") {
		t.Error("parallel name should list members")
	}
}

func TestDHTRouterDeclinesSessionPeers(t *testing.T) {
	tn := buildCleanNet(t, 30, 41)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		r := routing.NewDHT(tn.AddVantage("DE", 960).DHT())
		before := tn.Net.Budget()
		peers, err := r.SessionPeers(ctx, testCid("x"), 3)
		spent := tn.Net.Budget().Sub(before).Requests
		if !errors.Is(err, routing.ErrNoSessionPeers) || len(peers) != 0 || spent != 0 {
			t.Errorf("dht session peers = (%v, %v) for %d requests, want a free decline", peers, err, spent)
		}
		if !r.WantBroadcast() {
			t.Error("dht router must keep the opportunistic broadcast")
		}
	})
}

func TestAcceleratedSessionPeersOneHop(t *testing.T) {
	tn := buildCleanNet(t, 120, 43)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {

		publisher := tn.AddVantageRouting("DE", 970, routing.KindAccelerated, nil)
		getter := tn.AddVantageRouting("US", 971, routing.KindAccelerated, nil)
		for _, n := range []interface {
			RefreshRoutingSnapshot(context.Context) (int, error)
		}{publisher, getter} {
			if _, err := n.RefreshRoutingSnapshot(ctx); err != nil {
				t.Fatalf("refresh: %v", err)
			}
		}
		pub, err := publisher.AddAndPublish(ctx, []byte("session candidate content"))
		if err != nil {
			t.Fatalf("publish: %v", err)
		}

		r := getter.Router()
		if r.WantBroadcast() {
			t.Error("accelerated router should skip the broadcast")
		}
		mctx, meter := transport.WithMeter(ctx)
		peers, err := r.SessionPeers(mctx, pub.Cid, 3)
		if err != nil {
			t.Fatalf("SessionPeers: %v", err)
		}
		if len(peers) == 0 || peers[0].ID != publisher.ID() {
			t.Fatalf("session peers = %v, want the publisher", peers)
		}
		if len(peers) > 3 {
			t.Errorf("session peers not capped: %d", len(peers))
		}
		if msgs := meter.Count(wire.TGetProviders); msgs == 0 || msgs > 6 {
			t.Errorf("session lookup spent %d RPCs, want a single small wave", msgs)
		}

		// An unpublished key must decline without walking.
		if _, err := r.SessionPeers(ctx, testCid("never published"), 3); !errors.Is(err, routing.ErrNoSessionPeers) {
			t.Errorf("miss err = %v, want ErrNoSessionPeers", err)
		}
	})
}

func TestIndexerSessionPeersNoDHTFallback(t *testing.T) {
	tn := buildCleanNet(t, 60, 45)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		ix := tn.AddIndexer("US", 980)

		publisher := tn.AddVantage("DE", 981)
		pubR := routing.NewIndexerRouter(publisher.Swarm(), oneShard(ix.Info()), nil,
			routing.IndexerRouterConfig{})
		pub, err := publisher.AddAndPublish(ctx, []byte("indexed session content"))
		if err != nil {
			t.Fatalf("publish: %v", err)
		}
		if _, err := pubR.Provide(ctx, pub.Cid); err != nil {
			t.Fatalf("indexer provide: %v", err)
		}

		getter := tn.AddVantage("US", 982)
		fb := &countingRouter{inner: routing.NewDHT(getter.DHT())}
		r := routing.NewIndexerRouter(getter.Swarm(), oneShard(ix.Info()), fb,
			routing.IndexerRouterConfig{})

		mctx, meter := transport.WithMeter(ctx)
		peers, err := r.SessionPeers(mctx, pub.Cid, 2)
		if err != nil || len(peers) == 0 || peers[0].ID != publisher.ID() {
			t.Fatalf("session peers = (%v, %v), want the publisher", peers, err)
		}
		if msgs := meter.Count(wire.TGetProviders); msgs != 1 {
			t.Errorf("session lookup spent %d RPCs, want exactly 1", msgs)
		}
		// A miss must decline instead of walking the DHT: session candidates
		// are advisory, the broadcast/walk fallback belongs to the caller.
		if _, err := r.SessionPeers(ctx, testCid("not indexed"), 2); !errors.Is(err, routing.ErrNoSessionPeers) {
			t.Errorf("miss err = %v, want ErrNoSessionPeers", err)
		}
		if fb.finds.Load() != 0 || fb.sessions.Load() != 0 {
			t.Error("session peer miss must not consult the DHT fallback")
		}
	})
}

func TestParallelSessionPeersRaceAndPolicy(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		fast := &fakeRouter{src: s, name: "fast", delay: time.Millisecond, provider: peer.ID("winner")}
		slow := &fakeRouter{src: s, name: "slow", delay: time.Minute, provider: peer.ID("loser")}
		decline := &fakeRouter{src: s, name: "decline", delay: time.Millisecond, broadcast: true}
		r := routing.NewParallel(s, decline, fast, slow)

		mctx, meter := transport.WithMeter(ctx)
		peers, err := r.SessionPeers(mctx, testCid("race"), 3)
		if err != nil {
			t.Fatalf("SessionPeers: %v", err)
		}
		if len(peers) != 1 || peers[0].ID != peer.ID("winner") {
			t.Fatalf("peers = %v, want the fast member's", peers)
		}
		if msgs := meter.Count(wire.TGetProviders); msgs != 3 {
			t.Errorf("race counted %d consults, want every member's (3), the cancelled loser's included", msgs)
		}
		if !slow.cancelled.Load() {
			t.Error("slow member was not cancelled after the fast one won")
		}
		if took := s.Now().Sub(simtest.Epoch); took != time.Millisecond {
			t.Errorf("the race took %v, want exactly the winner's 1ms", took)
		}

		// Broadcast policy: any member wanting the broadcast keeps it.
		if !r.WantBroadcast() {
			t.Error("composite with a broadcasting member must broadcast")
		}
		if routing.NewParallel(s, fast, slow).WantBroadcast() {
			t.Error("composite of one-hop members must skip the broadcast")
		}

		// All members declining yields ErrNoSessionPeers.
		d2 := &fakeRouter{src: s, name: "d2", delay: time.Millisecond}
		if _, err := routing.NewParallel(s, d2).SessionPeers(ctx, testCid("none"), 3); !errors.Is(err, routing.ErrNoSessionPeers) {
			t.Errorf("all-decline err = %v, want ErrNoSessionPeers", err)
		}
	})
}

// TestSessionMissHandoffSkipsDirectProbe is the regression test for the
// consult-result handoff: a FindProviders carrying a session-consult
// miss for the same CID must not re-probe the one-hop neighbourhood —
// the whole direct RPC wave is saved and only the fallback runs.
func TestSessionMissHandoffSkipsDirectProbe(t *testing.T) {
	tn := buildCleanNet(t, 60, 51)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		node := tn.AddVantage("US", 990)
		fb := &countingRouter{inner: &fakeRouter{src: tn.Sched, name: "stub", delay: time.Millisecond, err: routing.ErrNoProviders}}
		accel := routing.NewAccelerated(node.Swarm(), fb, routing.AcceleratedConfig{})
		var infos []wire.PeerInfo
		for _, n := range tn.Nodes {
			infos = append(infos, n.Info())
		}
		accel.SetSnapshot(infos)

		c := testCid("unpublished content")
		// Plain miss: the direct one-hop wave probes the K closest snapshot
		// peers before the fallback runs.
		before := tn.Net.Budget().Requests
		if _, _, err := findProviders(ctx, accel, c); !errors.Is(err, routing.ErrNoProviders) {
			t.Fatalf("plain miss err = %v, want ErrNoProviders", err)
		}
		mid := tn.Net.Budget().Requests
		probed := mid - before
		if probed == 0 {
			t.Fatal("direct path issued no RPCs; test setup broken")
		}
		if fb.finds.Load() != 1 {
			t.Fatalf("fallback consulted %d times, want 1", fb.finds.Load())
		}

		// The same lookup under WithSessionMiss goes straight to the
		// fallback: zero duplicate direct RPCs — the saved wave.
		if _, _, err := findProviders(routing.WithSessionMiss(ctx, c), accel, c); !errors.Is(err, routing.ErrNoProviders) {
			t.Fatalf("handoff miss err = %v, want ErrNoProviders", err)
		}
		after := tn.Net.Budget().Requests
		if d := after - mid; d != 0 {
			t.Errorf("handoff lookup issued %d RPCs, want 0 (the consult already probed the neighbourhood; plain miss cost %d)", d, probed)
		}
		if fb.finds.Load() != 2 {
			t.Fatalf("fallback consulted %d times, want 2", fb.finds.Load())
		}

		// The hint is keyed to the CID: lookups for other keys still probe
		// the snapshot directly.
		b3 := tn.Net.Budget().Requests
		findProviders(routing.WithSessionMiss(ctx, c), accel, testCid("different key"))
		a3 := tn.Net.Budget().Requests
		if a3 == b3 {
			t.Error("a hint for one CID suppressed the direct probe of another")
		}

		// Without a fallback, a hinted one-hop router declines instantly
		// instead of re-probing.
		bare := routing.NewAccelerated(node.Swarm(), nil, routing.AcceleratedConfig{})
		bare.SetSnapshot(infos)
		b4 := tn.Net.Budget().Requests
		if _, _, err := findProviders(routing.WithSessionMiss(ctx, c), bare, c); !errors.Is(err, routing.ErrNoProviders) {
			t.Fatalf("bare handoff err = %v, want ErrNoProviders", err)
		}
		a4 := tn.Net.Budget().Requests
		if a4 != b4 {
			t.Errorf("fallback-less handoff lookup issued %d RPCs, want 0", a4-b4)
		}
	})
}

// TestAcceleratedWaveSchedulePinned is the accelerated counterpart of
// TestShardFailoverExtraRPCsPinned: the one-hop lookup's first wave is
// the single snapshot peer nearest the key, so a fresh snapshot
// answers in one RPC; with that peer offline the lookup pays its
// failed dial and then one wave of α (Parallelism) peers, cancelled at
// the first provider-carrying answer. The provider stream and the
// session consult run the same lookup, so both pay the same.
func TestAcceleratedWaveSchedulePinned(t *testing.T) {
	lookups := []struct {
		name string
		find func(context.Context, routing.Router, cid.Cid) ([]wire.PeerInfo, int, error)
	}{
		{"FindProvidersStream", findProviders},
		{"SessionPeers", sessionPeers},
	}
	cases := []struct {
		name        string
		nearestDown bool
		// The RPCs the lookup launches, and how its accel-direct span
		// splits them: the offline peer's failed dial plus the α wave's
		// two members cancelled by the winner count as failed.
		wantQueried, wantFailed int
		wantRequests            int64 // requests the network actually carried
		wantDialFails           int64
	}{
		{name: "fresh snapshot", wantQueried: 1, wantFailed: 0, wantRequests: 1, wantDialFails: 0},
		{name: "nearest peer offline", nearestDown: true, wantQueried: 1, wantFailed: 3, wantRequests: 1, wantDialFails: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, lk := range lookups {
				t.Run(lk.name, func(t *testing.T) {
					tn := buildCleanNet(t, 120, 47)
					simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
						var infos []wire.PeerInfo
						for _, n := range tn.Nodes {
							infos = append(infos, n.Info())
						}
						pubNode, getNode := tn.AddVantage("DE", 960), tn.AddVantage("US", 961)
						pub := routing.NewAccelerated(pubNode.Swarm(), nil, routing.AcceleratedConfig{})
						get := routing.NewAccelerated(getNode.Swarm(), nil, routing.AcceleratedConfig{})
						pub.SetSnapshot(infos)
						get.SetSnapshot(infos)

						c := testCid("wave schedule content")
						if _, err := pub.Provide(ctx, c); err != nil {
							t.Fatalf("Provide: %v", err)
						}
						if tc.nearestDown {
							target := kbucket.KeyForBytes(c.Bytes())
							nearest := infos[0]
							for _, pi := range infos[1:] {
								if kbucket.Less(kbucket.XOR(kbucket.KeyForPeer(pi.ID), target), kbucket.XOR(kbucket.KeyForPeer(nearest.ID), target)) {
									nearest = pi
								}
							}
							tn.SetOnline(nearest.ID, false)
						}
						before := tn.Net.Budget()
						tctx, root := telemetry.NewRecorder(tn.Sched).StartTrace(ctx, "retrieve")
						providers, msgs, err := lk.find(tctx, get, c)
						root.End()
						if err != nil {
							t.Fatalf("%s: %v", lk.name, err)
						}
						if len(providers) == 0 || providers[0].ID != pubNode.ID() {
							t.Fatalf("providers = %v, want the publisher", providers)
						}
						d := tn.Net.Budget().Sub(before)
						if want := tc.wantQueried + tc.wantFailed; msgs != want {
							t.Errorf("lookup counted %d RPCs, want %d", msgs, want)
						}
						attrs := map[string]string{}
						for _, a := range telemetry.TraceFrom(tctx).FindSpan("accel-direct").Attrs() {
							attrs[a.Key] = a.Value
						}
						if q, f := attrs["queried"], attrs["failed"]; q != strconv.Itoa(tc.wantQueried) || f != strconv.Itoa(tc.wantFailed) {
							t.Errorf("accel-direct span reports %s answered / %s failed RPCs, want %d / %d",
								q, f, tc.wantQueried, tc.wantFailed)
						}
						if d.Requests != tc.wantRequests || d.DialFailures != tc.wantDialFails {
							t.Errorf("budget delta = %d requests / %d failed dials, want %d / %d",
								d.Requests, d.DialFailures, tc.wantRequests, tc.wantDialFails)
						}
					})
				})
			}
		})
	}
}

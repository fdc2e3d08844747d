package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/dht"
	"repro/internal/kbucket"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// testNodes attaches n server nodes to a fresh simulated network on src.
// Nothing but Time carries the clock: whatever cfg sets, every node is
// built with Config.Time = src and no other time value exists to set.
func testNodes(src simtime.Source, n int, cfg Config) []*Node {
	net := simnet.New(simnet.Config{Time: src, Seed: 12})
	rng := rand.New(rand.NewSource(34))
	cfg.Time = src
	nodes := make([]*Node, n)
	for i := range nodes {
		ident := peer.MustNewIdentity(rng)
		nodes[i] = New(ident, net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true}), cfg)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.DHT().Seed(b.Info(), kbucket.KeyForPeer(b.ID()))
			}
		}
	}
	return nodes
}

// streamStep is one scripted provider batch, yielded after its own
// simulated delay.
type streamStep struct {
	after time.Duration
	peers []wire.PeerInfo
}

// scriptRouter is a content router whose provider stream follows a
// script on src: the steps in order, then — after endAfter — a last
// batch (when set) handed over as the stream's final act, or the
// terminal error. It knows no session peers, so asks broadcast.
type scriptRouter struct {
	src      simtime.Source
	steps    []streamStep
	endAfter time.Duration
	last     []wire.PeerInfo
	err      error
}

func (r *scriptRouter) Name() string        { return "script" }
func (r *scriptRouter) WantBroadcast() bool { return true }
func (r *scriptRouter) Provide(context.Context, cid.Cid) (routing.ProvideResult, error) {
	return routing.ProvideResult{}, errors.New("script router does not publish")
}
func (r *scriptRouter) ProvideMany(context.Context, []cid.Cid) (routing.ProvideManyResult, error) {
	return routing.ProvideManyResult{}, errors.New("script router does not publish")
}
func (r *scriptRouter) SessionPeers(context.Context, cid.Cid, int) ([]wire.PeerInfo, error) {
	return nil, routing.ErrNoSessionPeers
}

// FindProvidersStream scripts the stream's batches and, as its final
// act, counts 7 lookup requests into the operation's meter: a count
// the caller can read only once the stream is joined.
func (r *scriptRouter) FindProvidersStream(ctx context.Context, _ cid.Cid) routing.ProviderSeq {
	end := routing.LazyStream(func() ([]wire.PeerInfo, error) {
		transport.MeterOf(ctx).Add(wire.TGetProviders, 7)
		if err := r.src.Sleep(ctx, r.endAfter); err != nil {
			return nil, err
		}
		return r.last, r.err
	})
	return func(yield func([]wire.PeerInfo) bool) error {
		for _, s := range r.steps {
			if r.src.Sleep(ctx, s.after) != nil || !yield(s.peers) {
				break
			}
		}
		return end(yield)
	}
}

// TestAwaitFirst pins the one wait the serial discovery blocks on —
// the stream's first provider, or its wind-down — on the scheduler and
// on the wall clock.
func TestAwaitFirst(t *testing.T) {
	simtest.BothEngines(t, testAwaitFirst)
}

func testAwaitFirst(t *testing.T, ctx context.Context, src simtime.Source, u time.Duration) {
	p := []wire.PeerInfo{{ID: "provider"}}
	cases := []struct {
		name   string
		router scriptRouter
		ok     bool
		took   time.Duration
	}{
		{"provider, then the stream winds down", scriptRouter{steps: []streamStep{{u, p}}, endAfter: 2 * u}, true, u},
		{"the stream winds down dry", scriptRouter{endAfter: 2 * u}, false, 2 * u},
		{"provider deposited as the stream's final act", scriptRouter{endAfter: 2 * u, last: p}, true, 2 * u},
	}
	n := testNodes(src, 1, Config{})[0]
	for _, tc := range cases {
		r := tc.router
		r.src = src
		n.SetRouter(&r)
		start := src.Stamp()
		mctx, meter := transport.WithMeter(ctx)
		ps := n.startProviderStream(mctx, cid.Sum(multicodec.Raw, []byte(tc.name)), simtime.NewSignal(src))
		got, ok := ps.awaitFirst(ctx)
		took := src.Since(start)
		ps.Finish()

		if ok != tc.ok || (ok && got.ID != "provider") {
			t.Errorf("%s: awaitFirst = %q, %v; want ok=%v", tc.name, got.ID, ok, tc.ok)
		}
		if lookups := meter.Count(wire.TGetProviders); lookups != 7 {
			t.Errorf("%s: %d lookup RPCs counted once Finish returned, want the stream's 7", tc.name, lookups)
		}
		if simtime.SchedulerOf(src) != nil && took != tc.took {
			t.Errorf("%s: took %v of virtual time, want exactly %v", tc.name, took, tc.took)
		}
	}
}

// TestDiscoverParallel pins the §6.2 race of the Bitswap ask against
// the provider stream on the scheduler and on the wall clock: whichever
// answers first wins, the loser is called off with its RPCs still
// counted, and when both fail the error is the one that arrived first.
// The neighbour sits on a simulated network, so on the wall clock its
// one round trip is some real milliseconds: the scripted stream keeps
// tens of units clear of it.
func TestDiscoverParallel(t *testing.T) {
	simtest.BothEngines(t, testDiscoverParallel)
}

func testDiscoverParallel(t *testing.T, ctx context.Context, src simtime.Source, u time.Duration) {
	window := 100 * u
	streamDown := errors.New("stream lookup failed")
	content := []byte("raced content")
	cases := []struct {
		name      string
		held      bool // the connected neighbour holds the content
		router    scriptRouter
		hit       bool          // the ask won
		wantErr   error         // both failed
		walk      time.Duration // exact ProviderWalk when the stream won
		took      time.Duration // exact virtual duration (0: one round trip, not asserted)
		wantHaves int
	}{{
		name: "the ask wins", held: true,
		router: scriptRouter{steps: []streamStep{{50 * u, []wire.PeerInfo{{ID: "far"}}}}},
		hit:    true, wantHaves: 1,
	}, {
		name:   "the stream wins",
		router: scriptRouter{steps: []streamStep{{u, []wire.PeerInfo{{ID: "far"}}}}, endAfter: u},
		walk:   u, took: u, wantHaves: 1,
	}, {
		name:    "both fail: the stream's error came first",
		router:  scriptRouter{endAfter: u, err: streamDown},
		wantErr: streamDown, took: window, wantHaves: 1,
	}, {
		name:    "both fail: the ask's timeout came first",
		router:  scriptRouter{endAfter: 2 * window, err: streamDown},
		wantErr: ErrNotFound, took: 2 * window, wantHaves: 1,
	}}
	for _, tc := range cases {
		nodes := testNodes(src, 2, Config{ParallelDiscovery: true, BitswapTimeout: window})
		getter, neighbour := nodes[0], nodes[1]
		root := cid.Sum(multicodec.Raw, content)
		if tc.held {
			root, _ = neighbour.Add(content)
		}
		if _, _, err := getter.Swarm().Connect(ctx, neighbour.ID(), neighbour.Addrs()); err != nil {
			t.Errorf("%s: connect: %v", tc.name, err)
			continue
		}
		r := tc.router
		r.src = src
		getter.SetRouter(&r)

		var res RetrieveResult
		start := src.Stamp()
		mctx, meter := transport.WithMeter(ctx)
		tctx, tsp := getter.Telemetry().StartTrace(mctx, "retrieve")
		dctx, dsp := telemetry.StartSpan(tctx, "discover")
		got, ps, err := getter.discoverParallel(dctx, root, &res)
		dsp.Annotate("routed", fmt.Sprint(res.RoutedSession))
		dsp.Annotate("bitswap-hit", fmt.Sprint(res.BitswapHit))
		dsp.Annotate("parallel", "true")
		dsp.End()
		took := src.Since(start)
		if err == nil {
			// Retrieve's next phase opens as discovery returns.
			_, fpsp := telemetry.StartSpan(tctx, "first-provider")
			fpsp.End()
		}
		ps.Finish()
		tsp.End()
		retrievePhases(tsp, &res)

		switch {
		case tc.wantErr != nil:
			if !errors.Is(err, tc.wantErr) {
				t.Errorf("%s: err = %v, want %v", tc.name, err, tc.wantErr)
			}
		case err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.hit && (got.ID != neighbour.ID() || !res.BitswapHit):
			t.Errorf("%s: provider %s (bitswap hit %v), want the neighbour's HAVE", tc.name, got.ID.Short(), res.BitswapHit)
		case !tc.hit && (got.ID != "far" || res.BitswapHit || res.ProviderWalk <= 0):
			t.Errorf("%s: provider %q (bitswap hit %v, walk %v), want the streamed one", tc.name, got.ID, res.BitswapHit, res.ProviderWalk)
		}
		// The loser's RPCs count too: the ask's WANT-HAVE and, once
		// Finish has joined it, the stream's lookup messages.
		if wh, lookups := meter.Count(wire.TWantHave), meter.Count(wire.TGetProviders); wh != tc.wantHaves || lookups != 7 {
			t.Errorf("%s: counted %d WANT-HAVEs and %d lookup RPCs, want %d and 7", tc.name, wh, lookups, tc.wantHaves)
		}
		if simtime.SchedulerOf(src) == nil {
			continue
		}
		if tc.took > 0 && took != tc.took {
			t.Errorf("%s: took %v of virtual time, want exactly %v", tc.name, took, tc.took)
		}
		// The winner's phase is the race's length; a loser, or a
		// racer that failed, reports no phase.
		var ask time.Duration
		if tc.hit {
			ask = took
		}
		if res.ProviderWalk != tc.walk || res.BitswapPhase != ask {
			t.Errorf("%s: ProviderWalk, BitswapPhase = %v, %v, want exactly %v, %v", tc.name, res.ProviderWalk, res.BitswapPhase, tc.walk, ask)
		}
	}
}

// TestProvidedOrderIsStable is the regression test for the republish
// batch riding on map iteration order: Provided — and so every
// RepublishRecords batch — is the same sequence on every call and on
// every node tracking the same CIDs, whatever order they were published
// in.
func TestProvidedOrderIsStable(t *testing.T) {
	cids := make([]cid.Cid, 16)
	for i := range cids {
		cids[i] = cid.Sum(multicodec.Raw, []byte(fmt.Sprint("tracked ", i)))
	}
	var a, b Node
	for _, c := range cids {
		a.repub.track(c)
	}
	for _, i := range rand.New(rand.NewSource(3)).Perm(len(cids)) {
		b.repub.track(cids[i])
	}
	want := fmt.Sprint(a.Provided())
	if len(a.Provided()) != len(cids) {
		t.Fatalf("Provided lists %d CIDs, want %d", len(a.Provided()), len(cids))
	}
	for call := 0; call < 50; call++ {
		if got := fmt.Sprint(a.Provided()); got != want {
			t.Fatalf("call %d: Provided order changed:\n%s\nvs\n%s", call, got, want)
		}
	}
	if got := fmt.Sprint(b.Provided()); got != want {
		t.Errorf("two nodes tracking the same CIDs list them differently:\n%s\nvs\n%s", got, want)
	}
}

// TestRecordsLiveOnTheNodesOneClock builds nodes with Config.Time and
// nothing else — parallel router included — and checks that what they
// stamp and expire follows that source: a provider record published on
// the scheduler carries the virtual instant and is gone once virtual
// time passes its TTL, with the wall clock years away from both.
func TestRecordsLiveOnTheNodesOneClock(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, sched *simtime.Scheduler) {
		nodes := testNodes(sched, 4, Config{Mode: dht.ModeServer, Routing: routing.KindParallel})
		pub := nodes[0]
		root, err := pub.Add([]byte("stamped on virtual time"))
		if err != nil {
			t.Fatal(err)
		}
		holders := func() (n int, stamps []time.Time) {
			for _, node := range nodes[1:] {
				for _, rec := range node.DHT().Providers().Get(root) {
					n++
					stamps = append(stamps, rec.Published)
				}
			}
			return n, stamps
		}
		if _, err := pub.Publish(ctx, root); err != nil {
			t.Fatalf("publish: %v", err)
		}
		n, stamps := holders()
		if n == 0 {
			t.Error("no peer stored the provider record")
		}
		for _, at := range stamps {
			if at.Before(simtest.Epoch) || at.After(sched.Now()) {
				t.Errorf("record stamped %v, want the virtual instant of the publish (%v .. %v)", at, simtest.Epoch, sched.Now())
			}
		}
		sched.Sleep(ctx, 23*time.Hour)
		if n, _ := holders(); n == 0 {
			t.Error("record expired before its 24 h TTL of virtual time")
		}
		sched.Sleep(ctx, 2*time.Hour)
		if n, _ := holders(); n != 0 {
			t.Errorf("%d records outlived 25 h of virtual time: the TTL is not running on the node's source", n)
		}
	})
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/kbucket"
	"repro/internal/multiaddr"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/transport"
	"repro/internal/wire"
)

// The scripted fabric's costs: every phase a retrieval or publication
// reports on it is a sum of these.
const (
	dialCost  = 10 * time.Millisecond
	haveCost  = 20 * time.Millisecond // WANT-HAVE
	blockCost = 30 * time.Millisecond // WANT-BLOCK
	queryCost = 40 * time.Millisecond // any other request: DHT queries
	storeCost = 50 * time.Millisecond // ADD_PROVIDER
	askWindow = time.Second           // the default opportunistic timeout
)

// fabric is a scripted network: a dial costs dialCost, a request its
// message type's cost, both slept on the scheduler, and a peer marked
// down cannot be dialled.
type fabric struct {
	src  simtime.Source
	rng  *rand.Rand
	eps  map[peer.ID]*fabricEP
	down map[peer.ID]bool
}

func newFabric(src simtime.Source) *fabric {
	return &fabric{src: src, rng: rand.New(rand.NewSource(5)), eps: make(map[peer.ID]*fabricEP), down: make(map[peer.ID]bool)}
}

// node attaches a node to the fabric.
func (f *fabric) node(cfg Config) *Node {
	ident := peer.MustNewIdentity(f.rng)
	ep := &fabricEP{f: f, id: ident.ID, addr: multiaddr.MustParse(fmt.Sprintf("/ip4/10.0.0.%d/tcp/4001", len(f.eps)+1))}
	f.eps[ident.ID] = ep
	cfg.Time = f.src
	return New(ident, ep, cfg)
}

func requestCost(t wire.Type) time.Duration {
	switch t {
	case wire.TWantHave:
		return haveCost
	case wire.TWantBlock:
		return blockCost
	case wire.TAddProvider:
		return storeCost
	}
	return queryCost
}

type fabricEP struct {
	f    *fabric
	id   peer.ID
	addr multiaddr.Multiaddr
	h    transport.Handler
}

func (e *fabricEP) LocalPeer() peer.ID             { return e.id }
func (e *fabricEP) Addrs() []multiaddr.Multiaddr   { return []multiaddr.Multiaddr{e.addr} }
func (e *fabricEP) SetHandler(h transport.Handler) { e.h = h }
func (e *fabricEP) Close() error                   { return nil }
func (e *fabricEP) Dial(ctx context.Context, target peer.ID, _ []multiaddr.Multiaddr) (transport.Conn, error) {
	if err := e.f.src.Sleep(ctx, dialCost); err != nil {
		return nil, err
	}
	remote, ok := e.f.eps[target]
	if !ok || e.f.down[target] {
		return nil, transport.ErrDialTimeout
	}
	return &fabricConn{local: e, remote: remote}, nil
}

type fabricConn struct{ local, remote *fabricEP }

func (c *fabricConn) RemotePeer() peer.ID { return c.remote.id }
func (c *fabricConn) Close() error        { return nil }
func (c *fabricConn) Request(ctx context.Context, req wire.Message) (wire.Message, error) {
	if err := c.local.f.src.Sleep(ctx, requestCost(req.Type)); err != nil {
		return wire.Message{}, err
	}
	return c.remote.h(ctx, c.local.id, req), nil
}

// know puts b in a's routing table and address book.
func know(a, b *Node) { a.DHT().Seed(b.Info(), kbucket.KeyForPeer(b.ID())) }

// connect opens a's connection to b ahead of the measured operation.
func connect(t *testing.T, ctx context.Context, a, b *Node) {
	if _, _, err := a.Swarm().Connect(ctx, b.ID(), b.Addrs()); err != nil {
		t.Fatal(err)
	}
}

// holdRecords stores on r the provider record of p for c — carrying
// p's addresses when withAddrs — and p's signed peer record, as if p
// had published both.
func holdRecords(ctx context.Context, r, p *Node, c cid.Cid, withAddrs bool) {
	prov := wire.PeerInfo{ID: p.ID()}
	if withAddrs {
		prov.Addrs = p.Addrs()
	}
	r.DHT().HandleMessage(ctx, p.ID(), wire.Message{Type: wire.TAddProvider, Key: c.Bytes(), Providers: []wire.PeerInfo{prov}})
	rec := record.NewPeerRecord(p.Identity(), p.Addrs(), 1, r.src.Now())
	r.DHT().HandleMessage(ctx, p.ID(), wire.Message{Type: wire.TPutPeerRecord, Key: []byte(p.ID()), PeerRec: &rec})
}

// TestRetrievePhasesFromTrace drives each shape of retrieval and
// publication on the scripted fabric and checks every duration
// retrievePhases and publishPhases read off the span tree against the
// fabric's costs.
func TestRetrievePhasesFromTrace(t *testing.T) {
	content := []byte("phase split")
	type phases struct {
		Total, BitswapPhase, ProviderWalk, FirstProvider, LookupFull, PeerWalk, Dial, Fetch time.Duration
	}
	of := func(r RetrieveResult) phases {
		return phases{r.Total, r.BitswapPhase, r.ProviderWalk, r.FirstProvider, r.LookupFull, r.PeerWalk, r.Dial, r.Fetch}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult
		want phases
	}{{
		// The connected holder answers the broadcast; the confirmed
		// session skips the handshake.
		name: "serial Bitswap hit",
		run: func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult {
			g, h := f.node(Config{}), f.node(Config{})
			root, _ := h.Add(content)
			connect(t, ctx, g, h)
			return mustRetrieve(t, ctx, g, root)
		},
		want: phases{Total: haveCost + blockCost, BitswapPhase: haveCost, FirstProvider: haveCost, Fetch: blockCost},
	}, {
		// The broadcast misses and waits out its window; one query to
		// the record holder yields the provider, with its addresses.
		name: "serial miss, then the walk",
		run: func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult {
			g, r, p := f.node(Config{}), f.node(Config{}), f.node(Config{})
			root, _ := p.Add(content)
			holdRecords(ctx, r, p, root, true)
			know(g, r)
			connect(t, ctx, g, r)
			return mustRetrieve(t, ctx, g, root)
		},
		want: phases{
			Total: askWindow + queryCost + dialCost + haveCost + blockCost, BitswapPhase: askWindow,
			ProviderWalk: queryCost, FirstProvider: askWindow + queryCost, LookupFull: queryCost,
			Dial: dialCost, Fetch: haveCost + blockCost,
		},
	}, {
		// The holder's HAVE beats the walk, which keeps running past
		// discover: the stream outlives the phase it served.
		name: "parallel discovery, the ask wins",
		run: func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult {
			g, h, r := f.node(Config{ParallelDiscovery: true}), f.node(Config{}), f.node(Config{})
			root, _ := h.Add(content)
			know(g, r)
			connect(t, ctx, g, h)
			connect(t, ctx, g, r)
			return mustRetrieve(t, ctx, g, root)
		},
		want: phases{Total: haveCost + blockCost, BitswapPhase: haveCost, FirstProvider: haveCost, LookupFull: queryCost, Fetch: blockCost},
	}, {
		// The stream yields before the broadcast's window closes; the
		// cancelled ask is no phase of the retrieval. The stream is two
		// spans: the one-hop lookup misses at the only snapshot peer,
		// then the walk finds the record.
		name: "parallel discovery, the stream wins",
		run: func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult {
			g := f.node(Config{ParallelDiscovery: true, Routing: routing.KindAccelerated})
			s, r, p := f.node(Config{}), f.node(Config{}), f.node(Config{})
			root, _ := p.Add(content)
			holdRecords(ctx, r, p, root, true)
			g.Accelerated().SetSnapshot([]wire.PeerInfo{s.Info()})
			know(g, r)
			connect(t, ctx, g, r)
			connect(t, ctx, g, s)
			return mustRetrieve(t, ctx, g, root)
		},
		want: phases{
			Total: 2*queryCost + dialCost + haveCost + blockCost, ProviderWalk: 2 * queryCost, FirstProvider: 2 * queryCost,
			LookupFull: 2 * queryCost, Dial: dialCost, Fetch: haveCost + blockCost,
		},
	}, {
		// Nobody holds the content: the walk comes back empty from the
		// record holder and the broadcast waits out its window. Neither
		// racer won, so neither reports a phase.
		name: "parallel discovery, both fail",
		run: func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult {
			g, r := f.node(Config{ParallelDiscovery: true}), f.node(Config{})
			know(g, r)
			connect(t, ctx, g, r)
			_, res, err := g.Retrieve(ctx, cid.Sum(multicodec.Raw, content))
			if !errors.Is(err, ErrNotFound) {
				t.Errorf("err = %v, want ErrNotFound", err)
			}
			return res
		},
		want: phases{Total: askWindow, LookupFull: queryCost},
	}, {
		// A second retrieval of the same CID, started 5 ms into the
		// first, joins its ask instead of broadcasting again.
		name: "a joined ask",
		run: func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult {
			g, h := f.node(Config{}), f.node(Config{})
			root, _ := h.Add(content)
			connect(t, ctx, g, h)
			var joined RetrieveResult
			grp := simtime.NewGroup(f.src)
			grp.Go(ctx, func(gctx context.Context) { mustRetrieve(t, gctx, g, root) })
			grp.Go(ctx, func(gctx context.Context) {
				f.src.Sleep(gctx, 5*time.Millisecond)
				joined = mustRetrieve(t, gctx, g, root)
			})
			grp.Wait(ctx)
			if joined.SuppressedWants == 0 {
				t.Error("the second retrieval did not join the first one's ask")
			}
			return joined
		},
		want: phases{
			Total: haveCost - 5*time.Millisecond + blockCost, BitswapPhase: haveCost - 5*time.Millisecond,
			FirstProvider: haveCost - 5*time.Millisecond, Fetch: blockCost,
		},
	}, {
		// The provider record carries no addresses and the book has
		// none: a second walk fetches the provider's peer record.
		name: "a peer walk through FindPeer",
		run: func(t *testing.T, ctx context.Context, f *fabric) RetrieveResult {
			g, r, p := f.node(Config{}), f.node(Config{}), f.node(Config{})
			root, _ := p.Add(content)
			holdRecords(ctx, r, p, root, false)
			know(g, r)
			connect(t, ctx, g, r)
			return mustRetrieve(t, ctx, g, root)
		},
		want: phases{
			Total: askWindow + 2*queryCost + dialCost + haveCost + blockCost, BitswapPhase: askWindow,
			ProviderWalk: queryCost, FirstProvider: askWindow + queryCost, LookupFull: queryCost,
			PeerWalk: queryCost, Dial: dialCost, Fetch: haveCost + blockCost,
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
				if got := of(tc.run(t, ctx, newFabric(s))); got != tc.want {
					t.Errorf("phases\n got %+v\nwant %+v", got, tc.want)
				}
			})
		})
	}

	// Every snapshot peer is down, so the one-hop store batch fails
	// after its dials and the DHT walk and store take over: the total
	// covers both paths, the walk and batch are the fallback's.
	t.Run("an accelerated provide falling back to the DHT", func(t *testing.T) {
		simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
			f := newFabric(s)
			p, r := f.node(Config{Routing: routing.KindAccelerated}), f.node(Config{})
			dead := f.node(Config{})
			f.down[dead.ID()] = true
			p.Accelerated().SetSnapshot([]wire.PeerInfo{dead.Info()})
			know(p, r)
			res, err := p.AddAndPublish(ctx, content)
			if err != nil {
				t.Fatal(err)
			}
			walk, batch := dialCost+queryCost, storeCost
			got := [3]time.Duration{res.WalkDuration, res.BatchDuration, res.TotalDuration}
			if want := [3]time.Duration{walk, batch, dialCost + walk + batch}; got != want {
				t.Errorf("walk, batch, total = %v, want %v", got, want)
			}
		})
	})
}

func mustRetrieve(t *testing.T, ctx context.Context, n *Node, root cid.Cid) RetrieveResult {
	_, res, err := n.Retrieve(ctx, root)
	if err != nil {
		t.Error(err)
	}
	return res
}

// Package core implements the paper's primary contribution: the IPFS
// node that publishes (§3.1) and retrieves (§3.2) content-addressed
// objects over the DHT and Bitswap, with per-phase instrumentation
// matching the measurements of §6.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bitswap"
	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/dht"
	"repro/internal/geo"
	"repro/internal/ipns"
	"repro/internal/merkledag"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/unixfs"
	"repro/internal/wire"
)

// Config tunes a node; zero values select the paper's defaults.
type Config struct {
	// Mode selects DHT server or client participation.
	Mode dht.Mode
	// Region locates the node for the latency model (informational on
	// real transports).
	Region geo.Region
	// K, Alpha, QueryTimeout configure the DHT (20 / 3 / 10 s).
	K            int
	Alpha        int
	QueryTimeout time.Duration
	// BitswapTimeout is the opportunistic discovery timeout (1 s).
	BitswapTimeout time.Duration
	// ParallelDiscovery runs the DHT walk concurrently with the Bitswap
	// broadcast instead of serially after its timeout — the §6.2
	// proposal ("running DHT lookups in parallel to Bitswap could be
	// superior"). Off by default, as deployed.
	ParallelDiscovery bool
	// OmitProviderAddrs forces retrievals through the second DHT walk
	// (see dht.Config).
	OmitProviderAddrs bool
	// Routing selects the content-routing implementation: the baseline
	// DHT walk (default), the accelerated one-hop client, the delegated
	// indexer client, or the parallel composite racing all of them.
	Routing routing.Kind
	// Store is the blockstore backing Bitswap serving, the gateway read
	// path and content import. Nil selects an in-memory MemStore. A
	// store implementing SetMetrics(*telemetry.Registry) is wired into
	// the node's registry; one implementing io.Closer is closed with
	// the node.
	Store block.Store
	// IndexerSet is the indexer topology the indexer and parallel
	// routers publish to and query: each CID routes to its shard's
	// replica group (one indexer is one shard of one replica). The
	// parallel router races an indexer member iff it is non-nil.
	IndexerSet *routing.IndexerSet
	// Time is the node's one time source: the swarm is built over it and
	// every subsystem (DHT, Bitswap, routers, telemetry) reads it from
	// there, so every sleep, spawn, timeout, record stamp and TTL of the
	// node runs on it. Scenario runs pass the event scheduler; nil is
	// the wall clock.
	Time simtime.Source
}

// Node is one IPFS peer.
type Node struct {
	cfg     Config
	ident   peer.Identity
	sw      *swarm.Swarm
	src     simtime.Source // the swarm's (cfg.Time with nil resolved)
	dht     *dht.DHT
	bswap   *bitswap.Bitswap
	store   block.Store
	pin     block.Pinner
	builder *merkledag.Builder
	repub   republisher

	router routing.Router
	accel  *routing.AcceleratedRouter // non-nil when the accelerated client is in play
	tel    *telemetry.Recorder

	ipnsSeq uint64
}

// New assembles a node over the given transport endpoint and installs
// its message dispatcher.
func New(ident peer.Identity, ep transport.Endpoint, cfg Config) *Node {
	sw := swarm.New(ident, ep, cfg.Time)
	src := sw.Time()
	store := cfg.Store
	if store == nil {
		store = block.NewMemStore()
	}
	d := dht.New(ident, sw, cfg.Mode, dht.Config{
		K:                 cfg.K,
		Alpha:             cfg.Alpha,
		QueryTimeout:      cfg.QueryTimeout,
		OmitProviderAddrs: cfg.OmitProviderAddrs,
	})
	d.SetIPNSValidator(ipns.ValidatorFor(src.Now))
	bs := bitswap.New(sw, store, bitswap.Config{
		OpportunisticTimeout: cfg.BitswapTimeout,
		SessionPeerTarget:    cfg.Alpha,
	})
	n := &Node{
		cfg:     cfg,
		ident:   ident,
		sw:      sw,
		src:     src,
		dht:     d,
		bswap:   bs,
		store:   store,
		builder: merkledag.NewBuilder(store, 0, 0),
		tel:     telemetry.NewRecorder(src),
	}
	if p, ok := store.(block.Pinner); ok {
		n.pin = p
	} else {
		n.pin = noopPinner{}
	}
	if m, ok := store.(interface {
		SetMetrics(*telemetry.Registry)
	}); ok {
		m.SetMetrics(n.tel.Registry())
	}
	n.router = n.buildRouter()
	// Bitswap session peer selection and the want-broadcast policy go
	// through the same router that serves provider lookups, so the
	// one-hop clients feed retrieval directly (§3.2 end to end).
	bs.SetRouting(n.router)
	ep.SetHandler(n.handle)
	return n
}

// buildRouter assembles the configured routing stack over the node's
// swarm and DHT. The DHT walk always backs the alternatives so a stale
// snapshot or an empty indexer degrades to today's behaviour instead of
// failing.
func (n *Node) buildRouter() routing.Router {
	base := routing.NewDHT(n.dht)
	newAccel := func(fallback routing.Router) *routing.AcceleratedRouter {
		n.accel = routing.NewAccelerated(n.sw, fallback, routing.AcceleratedConfig{
			K:           n.cfg.K,
			Parallelism: n.cfg.Alpha,
			RPCTimeout:  n.cfg.QueryTimeout,
		})
		return n.accel
	}
	newIndexer := func(fallback routing.Router) *routing.IndexerRouter {
		return routing.NewIndexerRouter(n.sw, n.cfg.IndexerSet, fallback, routing.IndexerRouterConfig{
			RPCTimeout: n.cfg.QueryTimeout,
		})
	}
	switch n.cfg.Routing {
	case routing.KindAccelerated:
		return newAccel(base)
	case routing.KindIndexer:
		return newIndexer(base)
	case routing.KindParallel:
		// Members race without their own DHT fallbacks: the base member
		// already walks, and a doubled walk would waste RPCs.
		members := []routing.Router{base, newAccel(nil)}
		if n.cfg.IndexerSet != nil {
			members = append(members, newIndexer(nil))
		}
		return routing.NewParallel(n.src, members...)
	default:
		return base
	}
}

// Router exposes the node's content router.
func (n *Node) Router() routing.Router { return n.router }

// SetRouter swaps the content router (experiments wire custom stacks),
// rebinding Bitswap's session routing and the
// Accelerated()/RefreshRoutingSnapshot helpers to the new stack.
func (n *Node) SetRouter(r routing.Router) {
	n.router = r
	n.accel = findAccelerated(r)
	n.bswap.SetRouting(r)
}

// findAccelerated locates an accelerated client in a router stack.
func findAccelerated(r routing.Router) *routing.AcceleratedRouter {
	switch v := r.(type) {
	case *routing.AcceleratedRouter:
		return v
	case *routing.ParallelRouter:
		for _, m := range v.Members() {
			if a := findAccelerated(m); a != nil {
				return a
			}
		}
	}
	return nil
}

// Accelerated returns the accelerated client when one is configured,
// else nil.
func (n *Node) Accelerated() *routing.AcceleratedRouter { return n.accel }

// Telemetry exposes the node's trace recorder and metrics registry.
func (n *Node) Telemetry() *telemetry.Recorder { return n.tel }

// RefreshRoutingSnapshot crawls the network into the accelerated
// client's snapshot, seeding the crawl from the node's routing table.
// It is a no-op for nodes without an accelerated client.
func (n *Node) RefreshRoutingSnapshot(ctx context.Context) (int, error) {
	if n.accel == nil {
		return 0, nil
	}
	var bootstrap []wire.PeerInfo
	for _, id := range n.dht.Table().AllPeers() {
		info := wire.PeerInfo{ID: id}
		if addrs, ok := n.sw.Book().Get(id); ok {
			info.Addrs = addrs
		}
		bootstrap = append(bootstrap, info)
	}
	size, err := n.accel.Refresh(ctx, bootstrap)
	if err == nil {
		n.tel.Registry().Gauge("snapshot_peers").Set(float64(size))
	}
	return size, err
}

// handle dispatches inbound requests to the owning subsystem.
func (n *Node) handle(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
	switch req.Type {
	case wire.TWantHave, wire.TWantBlock:
		return n.bswap.HandleMessage(ctx, from, req)
	case wire.TDialBack:
		return n.sw.HandleDialBack(ctx, req)
	case wire.TIdentify:
		return wire.Message{Type: wire.TNodes, Peers: []wire.PeerInfo{{ID: n.ident.ID, Addrs: n.sw.Addrs()}}}
	default:
		return n.dht.HandleMessage(ctx, from, req)
	}
}

// ID returns the node's PeerID.
func (n *Node) ID() peer.ID { return n.ident.ID }

// Identity returns the node's key pair.
func (n *Node) Identity() peer.Identity { return n.ident }

// Addrs returns the node's listen multiaddresses.
func (n *Node) Addrs() []multiaddr.Multiaddr { return n.sw.Addrs() }

// Info returns the node's PeerInfo for bootstrapping others.
func (n *Node) Info() wire.PeerInfo {
	return wire.PeerInfo{ID: n.ident.ID, Addrs: n.sw.Addrs()}
}

// Region returns the configured region.
func (n *Node) Region() geo.Region { return n.cfg.Region }

// DHT exposes the node's DHT.
func (n *Node) DHT() *dht.DHT { return n.dht }

// Swarm exposes connection management.
func (n *Node) Swarm() *swarm.Swarm { return n.sw }

// Bitswap exposes the exchange engine.
func (n *Node) Bitswap() *bitswap.Bitswap { return n.bswap }

// Store exposes the local blockstore.
func (n *Node) Store() block.Store { return n.store }

// Pinner exposes the store's pinning surface; for stores without pin
// support it is a no-op whose Pinned always reports false.
func (n *Node) Pinner() block.Pinner { return n.pin }

// ClearStore drops unpinned blocks on stores that support bulk reset
// (the experiment harnesses' between-iteration reset); otherwise it is
// a no-op.
func (n *Node) ClearStore() {
	if c, ok := n.store.(block.Clearer); ok {
		c.Clear()
	}
}

// noopPinner backs Pinner for stores without pin support.
type noopPinner struct{}

func (noopPinner) Pin(cid.Cid)         {}
func (noopPinner) Unpin(cid.Cid)       {}
func (noopPinner) Pinned(cid.Cid) bool { return false }

// Close shuts the node down, closing the blockstore when it holds
// resources (PackStore's background flusher and volume files).
func (n *Node) Close() error {
	err := n.sw.Close()
	if c, ok := n.store.(interface{ Close() error }); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Add imports content into the local node: chunk, build the Merkle DAG,
// allocate the root CID (Figure 3 step 1). Nothing leaves the machine.
func (n *Node) Add(data []byte) (cid.Cid, error) {
	return n.builder.Add(data)
}

// AddTree imports a path→content map as a UnixFS directory tree and
// returns the root directory CID, addressable as /ipfs/{CID}/{path}.
func (n *Node) AddTree(files map[string][]byte) (cid.Cid, error) {
	return unixfs.AddTree(n.store, n.builder, files)
}

// Cat reassembles locally stored content.
func (n *Node) Cat(root cid.Cid) ([]byte, error) {
	return merkledag.Assemble(n.store, root)
}

// CatPath resolves a UnixFS path beneath a locally stored root and
// returns the file content.
func (n *Node) CatPath(root cid.Cid, path string) ([]byte, error) {
	return unixfs.ReadFile(n.store, root, path)
}

// List returns the entries of a locally stored UnixFS directory.
func (n *Node) List(dir cid.Cid) ([]unixfs.Entry, error) {
	return unixfs.List(n.store, dir)
}

// Has reports whether the full DAG under root is locally available.
func (n *Node) Has(root cid.Cid) bool {
	_, err := merkledag.AllCids(n.store, root)
	return err == nil
}

// PublishResult instruments one content publication (Figures 9a–c):
// the router's store counts, the requests read off the publication's
// meter, and the phases publishPhases reads off its span tree, in
// simulated time.
type PublishResult struct {
	Cid cid.Cid
	dht.ProvideResult
	// RPCs counts the routing requests the publication launched: walk
	// queries and record stores, every raced member's included.
	RPCs          int
	WalkDuration  time.Duration // DHT walk to the k closest peers (Fig 9b)
	BatchDuration time.Duration // concurrent ADD_PROVIDER RPC batch (Fig 9c)
	TotalDuration time.Duration // overall publication (Fig 9a)
}

// Publish pushes provider records for root through the configured
// router — the k closest DHT peers for the baseline walk (Figure 3
// steps 2–3), the snapshot neighbourhood for the accelerated client, or
// the indexer store. The content must have been Added locally first.
func (n *Node) Publish(ctx context.Context, root cid.Cid) (PublishResult, error) {
	if !n.store.Has(root) {
		return PublishResult{}, fmt.Errorf("core: publish: %s not in local store", root)
	}
	ctx, sp := n.tel.StartTrace(ctx, "publish",
		telemetry.A("cid", root.String()), telemetry.A("router", n.router.Name()))
	// The whole provide tree — walk queries included — is attributed to
	// the publish budget category.
	mctx, meter := transport.WithMeter(transport.WithRPCCategory(ctx, transport.CatPublish))
	res, err := n.router.Provide(mctx, root)
	reg := n.tel.Registry()
	reg.Counter("publishes_total", "router", n.router.Name()).Inc()
	if err == nil {
		n.repub.track(root)
		sp.Annotate("stores", fmt.Sprint(res.StoreOK))
	} else {
		reg.Counter("publish_failures", "router", n.router.Name()).Inc()
		sp.Annotate("err", err.Error())
	}
	sp.End()
	out := PublishResult{Cid: root, ProvideResult: res, RPCs: meter.Count(wire.TFindNode, wire.TAddProvider)}
	publishPhases(sp, &out)
	return out, err
}

// AddAndPublish imports data and publishes its provider record.
func (n *Node) AddAndPublish(ctx context.Context, data []byte) (PublishResult, error) {
	root, err := n.Add(data)
	if err != nil {
		return PublishResult{}, err
	}
	return n.Publish(ctx, root)
}

// PublishPeerRecord stores our signed address mapping on the DHT; done
// at startup and on the 12 h republish cycle (§3.1).
func (n *Node) PublishPeerRecord(ctx context.Context) error {
	return n.dht.PublishPeerRecord(ctx)
}

// Bootstrap joins the network via the canonical bootstrap peers (§2.2).
func (n *Node) Bootstrap(ctx context.Context, peers []wire.PeerInfo) error {
	return n.dht.Bootstrap(ctx, peers)
}

// CheckNATAndSetMode runs AutoNAT (§2.3) and adjusts the DHT mode: more
// than three successful dial-backs upgrade the node to server.
func (n *Node) CheckNATAndSetMode(ctx context.Context) dht.Mode {
	switch n.sw.CheckNAT(ctx, 0) {
	case swarm.NATPublic:
		n.dht.SetMode(dht.ModeServer)
	case swarm.NATPrivate:
		n.dht.SetMode(dht.ModeClient)
	}
	return n.dht.Mode()
}

// PublishIPNS points our IPNS name at root (§3.3).
func (n *Node) PublishIPNS(ctx context.Context, root cid.Cid) error {
	n.ipnsSeq++
	rec := ipns.NewRecord(n.ident, root, n.ipnsSeq, n.src.Now(), 0)
	_, err := n.dht.PutIPNS(ctx, ipns.Name(n.ident.ID), rec.Marshal())
	return err
}

// ResolveIPNS resolves a publisher's IPNS name to its current CID.
func (n *Node) ResolveIPNS(ctx context.Context, publisher peer.ID) (cid.Cid, error) {
	data, err := n.dht.GetIPNS(ctx, ipns.Name(publisher))
	if err != nil {
		return cid.Cid{}, err
	}
	rec, err := ipns.Unmarshal(data)
	if err != nil {
		return cid.Cid{}, err
	}
	if err := rec.Validate(ipns.Name(publisher), n.src.Now()); err != nil {
		return cid.Cid{}, err
	}
	return rec.Value, nil
}

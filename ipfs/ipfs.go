// Package ipfs is the public API of this reproduction of "Design and
// Evaluation of IPFS: A Storage Layer for the Decentralized Web"
// (SIGCOMM 2022). It re-exports the core node, simulated and TCP
// testnet builders, the HTTP gateway, and the measurement crawler
// behind a compact facade.
//
// Quickstart:
//
//	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 100})
//	alice, bob := net.Node(0), net.Node(1)
//	net.Run(func(ctx context.Context) {
//		pub, _ := alice.AddAndPublish(ctx, []byte("hello decentralized web"))
//		data, res, _ := bob.Retrieve(ctx, pub.Cid)
//	})
package ipfs

import (
	"context"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/dht"
	"repro/internal/gateway"
	"repro/internal/geo"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/swarm"
	"repro/internal/testnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Re-exported core types.
type (
	// Node is an IPFS peer (see internal/core).
	Node = core.Node
	// Cid is a content identifier (§2.1).
	Cid = cid.Cid
	// PeerID identifies a peer (§2.2).
	PeerID = peer.ID
	// PeerInfo couples a PeerID with its multiaddresses.
	PeerInfo = wire.PeerInfo
	// PublishResult instruments a publication (Fig 9a–c).
	PublishResult = core.PublishResult
	// RetrieveResult instruments a retrieval (Fig 9d–f).
	RetrieveResult = core.RetrieveResult
	// Gateway is the HTTP bridge of §3.4.
	Gateway = gateway.Gateway
	// GatewayRequest is one client GET through the gateway.
	GatewayRequest = gateway.Request
	// GatewayLogEntry is one access-log line (§4.2 schema).
	GatewayLogEntry = gateway.LogEntry
	// GatewayTierStats aggregates a serving tier (Table 5).
	GatewayTierStats = gateway.TierStats
	// Crawler implements the §4.1 measurement methodology.
	Crawler = crawler.Crawler
	// Region names a geographic location for the latency model.
	Region = geo.Region
	// Router is the pluggable content-routing abstraction every node
	// publishes and retrieves through (see internal/routing).
	Router = routing.Router
	// RoutingKind selects a Router implementation in node configs.
	RoutingKind = routing.Kind
	// ProviderSeq is the streaming provider-discovery iterator
	// Router.FindProvidersStream returns.
	ProviderSeq = routing.ProviderSeq
	// ProvideManyResult instruments a batched publication
	// (Router.ProvideMany): the per-target-peer grouping and ack-ledger
	// skips a republish cycle rides on.
	ProvideManyResult = routing.ProvideManyResult
	// RepublishStats summarizes one Node.Republish cycle.
	RepublishStats = core.RepublishStats
	// Indexer is the delegated-routing aggregator node role.
	Indexer = routing.Indexer
	// IndexerSet is the shard topology of a sharded indexer fleet.
	IndexerSet = routing.IndexerSet
	// IndexerFleet couples built indexer nodes with their topology.
	IndexerFleet = testnet.IndexerFleet
	// AcceleratedRouter is the one-hop full-routing-table client.
	AcceleratedRouter = routing.AcceleratedRouter
	// BlockStore is the blockstore seam every node serves Bitswap and
	// the gateway from (see internal/block).
	BlockStore = block.Store
	// BlockPinner is the optional pinning surface of a BlockStore.
	BlockPinner = block.Pinner
	// PackStore is the pack-engine blockstore: append-only volumes, an
	// in-memory CID index, and background compaction.
	PackStore = block.PackStore
	// PackConfig tunes a PackStore.
	PackConfig = block.PackConfig
)

// Router kinds selectable via core.Config.Routing.
const (
	// RoutingDHT is the baseline iterative DHT walk.
	RoutingDHT = routing.KindDHT
	// RoutingAccelerated is the snapshot-based one-hop client.
	RoutingAccelerated = routing.KindAccelerated
	// RoutingIndexer delegates to indexer nodes with DHT fallback.
	RoutingIndexer = routing.KindIndexer
	// RoutingParallel races every configured router.
	RoutingParallel = routing.KindParallel
)

// ParseCid parses the text form of a CID.
func ParseCid(s string) (Cid, error) { return cid.Parse(s) }

// SumCid computes the CID of raw data (sha2-256, raw codec).
func SumCid(data []byte) Cid { return cid.Sum(multicodec.Raw, data) }

// SimConfig configures an in-process simulated network.
type SimConfig struct {
	// Peers is the network size (default 200).
	Peers int
	// Seed drives all randomness (default 1).
	Seed int64
	// Clean removes the dead/slow/broken peer classes, for examples and
	// tests that want a well-behaved network.
	Clean bool
}

// SimNetwork is a simulated IPFS network. It lives on virtual time:
// build nodes, gateways and crawlers on it freely, and do everything
// that takes simulated time — publish, retrieve, fetch, crawl — inside
// Run.
type SimNetwork struct {
	tn *testnet.Testnet
}

// NewSimNetwork builds a simulated network with a geo-distributed
// population and converged routing tables.
func NewSimNetwork(cfg SimConfig) *SimNetwork {
	tcfg := testnet.Config{
		N:    cfg.Peers,
		Seed: cfg.Seed,
	}
	if tcfg.Seed == 0 {
		tcfg.Seed = 1
	}
	if cfg.Clean {
		tcfg.FracDead, tcfg.FracSlow, tcfg.FracWSBroken = 1e-9, 1e-9, 1e-9
	}
	return &SimNetwork{tn: testnet.Build(tcfg)}
}

// Run runs body on the network's virtual clock and returns when body
// has: every latency body observes is simulated time, replayed as fast
// as the host computes and identical on every run of the same seed.
// body receives the context every call that waits must be given, and
// starts goroutines through Testnet().Sched.Go — a plain `go` is
// invisible to the virtual clock. A network runs once: Run panics when
// called again.
func (s *SimNetwork) Run(body func(ctx context.Context)) {
	if err := s.tn.Sched.Run(context.Background(), body); err != nil {
		panic("ipfs: SimNetwork.Run: " + err.Error())
	}
}

// Node returns the i-th peer.
func (s *SimNetwork) Node(i int) *Node { return s.tn.Nodes[i] }

// Len returns the network size.
func (s *SimNetwork) Len() int { return len(s.tn.Nodes) }

// LiveNodes returns the well-behaved peers.
func (s *SimNetwork) LiveNodes() []*Node { return s.tn.LiveNodes() }

// AddNode attaches a fresh, bootstrapped node in the given region.
func (s *SimNetwork) AddNode(region Region, seed int64) *Node {
	return s.tn.AddVantage(region, seed)
}

// AddIndexerSet attaches a sharded indexer fleet — shards × replicas
// indexer nodes with gossip-wired replica groups — and returns it; one
// indexer is AddIndexerSet(seed, 1, 1). The fleet consumes seeds
// seed..seed+shards×replicas-1; pick node seeds outside that range.
func (s *SimNetwork) AddIndexerSet(seed int64, shards, replicas int) *IndexerFleet {
	return s.tn.AddIndexerSet(seed, shards, replicas, 0)
}

// AddNodeRouting attaches a fresh node using the given content router.
// fleet, from AddIndexerSet, is the indexer deployment the indexer and
// parallel routers publish to and ask; nil for kinds that use none.
func (s *SimNetwork) AddNodeRouting(region Region, seed int64, kind RoutingKind, fleet *IndexerFleet) *Node {
	var set *IndexerSet
	if fleet != nil {
		set = fleet.Set
	}
	return s.tn.AddVantageRouting(region, seed, kind, set)
}

// Testnet exposes the underlying builder for advanced use.
func (s *SimNetwork) Testnet() *testnet.Testnet { return s.tn }

// NewGateway builds an HTTP gateway in front of a fresh node in the
// given region with an nginx-style cache of cacheBytes.
func (s *SimNetwork) NewGateway(region Region, cacheBytes int64, seed int64) *Gateway {
	node := s.tn.AddVantage(region, seed)
	return gateway.New(node, cacheBytes, s.tn.Sched)
}

// NewCrawler builds a §4.1 crawler attached to the network.
func (s *SimNetwork) NewCrawler(seed int64) *Crawler {
	ident := peer.MustNewIdentity(randFrom(seed))
	ep := s.tn.Net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true})
	sw := swarm.New(ident, ep, s.tn.Sched)
	return crawler.New(sw, crawler.Config{})
}

// Bootstrap returns bootstrap infos for joining this network.
func (s *SimNetwork) Bootstrap(n int) []PeerInfo {
	if n > len(s.tn.Nodes) {
		n = len(s.tn.Nodes)
	}
	out := make([]PeerInfo, 0, n)
	for _, node := range s.tn.Nodes[:n] {
		out = append(out, node.Info())
	}
	return out
}

// TCPNodeConfig configures a real-TCP node.
type TCPNodeConfig struct {
	// Listen is the host:port to bind (default "127.0.0.1:0").
	Listen string
	// Seed derives the identity deterministically; 0 uses crypto
	// randomness.
	Seed int64
	// Region is informational.
	Region Region
	// Client joins as a DHT client instead of a server.
	Client bool
	// Store is the node's blockstore; nil selects an in-memory store.
	// Build persistent ones with NewBlockStore.
	Store BlockStore
}

// NewBlockStore builds a blockstore by kind: "mem" (or "") is the
// in-memory store, "pack" the pack-engine store, which needs dir.
func NewBlockStore(kind, dir string) (BlockStore, error) {
	switch kind {
	case "", "mem":
		return block.NewMemStore(), nil
	case "pack":
		if dir == "" {
			return nil, fmt.Errorf("ipfs: blockstore kind %q needs a directory", kind)
		}
		return block.NewPackStore(dir, block.PackConfig{})
	default:
		return nil, fmt.Errorf("ipfs: unknown blockstore kind %q (want mem or pack)", kind)
	}
}

// NewTCPNode starts a node on a real TCP listener — the cmd/ipfs-node
// path and the way to build multi-process local testnets.
func NewTCPNode(cfg TCPNodeConfig) (*Node, error) {
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	var ident peer.Identity
	var err error
	if cfg.Seed != 0 {
		ident = peer.MustNewIdentity(randFrom(cfg.Seed))
	} else if ident, err = peer.NewIdentity(nil); err != nil {
		return nil, fmt.Errorf("ipfs: %w", err)
	}
	ep, err := transport.ListenTCP(ident, cfg.Listen)
	if err != nil {
		return nil, err
	}
	mode := dht.ModeServer
	if cfg.Client {
		mode = dht.ModeClient
	}
	return core.New(ident, ep, core.Config{Mode: mode, Region: cfg.Region, Store: cfg.Store}), nil
}

// NewTCPGateway builds an HTTP gateway over a TCP node.
func NewTCPGateway(node *Node, cacheBytes int64) *Gateway {
	return gateway.New(node, cacheBytes, node.Swarm().Time())
}

// ParsePeerInfo parses "peerID@/ip4/../tcp/../p2p/.." or a bare
// multiaddress with a /p2p component into bootstrap info.
func ParsePeerInfo(s string) (PeerInfo, error) {
	m, err := parseMaddr(s)
	if err != nil {
		return PeerInfo{}, err
	}
	idStr, ok := m.PeerID()
	if !ok {
		return PeerInfo{}, fmt.Errorf("ipfs: address %q has no /p2p component", s)
	}
	id, err := peer.ParseID(idStr)
	if err != nil {
		return PeerInfo{}, err
	}
	return PeerInfo{ID: id, Addrs: []multiaddrT{m}}, nil
}

// SummarizeGatewayLog aggregates an access log into per-tier request
// counts, traffic and median latency (Table 5).
func SummarizeGatewayLog(log []GatewayLogEntry) map[string]GatewayTierStats {
	out := make(map[string]GatewayTierStats)
	for tier, s := range gateway.Summarize(log) {
		out[tier.String()] = s
	}
	return out
}

// DefaultReplication is the paper's k = 20.
const DefaultReplication = 20

// DefaultBitswapTimeout is the 1 s opportunistic timeout.
const DefaultBitswapTimeout = time.Second

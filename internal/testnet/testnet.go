// Package testnet builds simulated IPFS networks: a geo-distributed
// peer population attached to the simulator, DHT servers with seeded
// routing tables (modelling a converged, long-running network with its
// share of stale entries), and vantage nodes standing in for the six
// AWS measurement VMs of §4.3.
package testnet

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/geo"
	"repro/internal/kbucket"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/wire"
)

// Config tunes the built network.
type Config struct {
	// N is the number of DHT server peers.
	N int
	// Seed drives all randomness.
	Seed int64

	// Behaviour-class fractions among the population. Dead peers model
	// stale routing-table entries (5 s dial timeouts); slow peers take
	// seconds per RPC; ws-broken peers hang for the 45 s handshake
	// timeout. The remainder behave normally.
	FracDead     float64
	FracSlow     float64
	FracWSBroken float64

	// Node behaviour knobs passed through to core.Config.
	K                 int
	Alpha             int
	QueryTimeout      time.Duration
	BitswapTimeout    time.Duration
	OmitProviderAddrs bool
	ParallelDiscovery bool

	// EventDriven is accepted and ignored: every testnet is built on a
	// discrete-event scheduler. The field stays only because the frozen
	// perfbench/ harness sets it; the [benchmark] PR that next edits
	// perfbench/ drops it there and here. Nothing else sets it.
	EventDriven bool

	// Faults is the initial link-fault profile installed on the
	// simulator (loss probability, extra latency, jitter). Scenario
	// engines adjust it mid-run via Net.SetFaults / Partition / Heal.
	Faults simnet.FaultProfile
	// ReachabilityMix attaches server peers with their population's
	// sampled dialability (Fig 7's mix: roughly a third of peers are
	// NAT'd and accept no inbound dials) instead of the default
	// everyone-dialable network. Pair with churn.TimelineConfig's
	// NATSessions so those peers still hold ordinary online sessions.
	ReachabilityMix bool
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 200
	}
	if c.FracDead == 0 && c.FracSlow == 0 && c.FracWSBroken == 0 {
		c.FracDead, c.FracSlow, c.FracWSBroken = 0.15, 0.08, 0.02
	}
	return c
}

// Every routing table is seeded with neighborLinks keyspace neighbours
// on each side (gives lookup convergence) plus randomLinks long-range
// contacts.
const (
	neighborLinks = 24
	randomLinks   = 40
)

// DefaultEpoch is where every testnet's virtual clock starts (the start
// of the paper's measurement campaign week).
var DefaultEpoch = time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)

// Testnet is a built simulated network. Whatever uses it runs as the
// root goroutine of Sched (Sched.Run), or below it.
type Testnet struct {
	Cfg     Config
	Net     *simnet.Network
	Sched   *simtime.Scheduler // the one time source the simulator and every node share
	Nodes   []*core.Node       // all server peers, index-aligned with Classes
	Classes []simnet.Class     // behaviour class per node
	Pop     *geo.Population

	keys []kbucket.Key // DHT key per node, index-aligned with Nodes
}

// Build constructs the network on a fresh scheduler whose clock starts
// at DefaultEpoch.
//
// The network is a function of cfg alone, on any GOMAXPROCS: every
// random draw is made first, on the calling goroutine and in a fixed
// order (per node an identity seed and a class draw, then every node's
// random links). Only then do workers derive the identities and seed
// the routing tables, each writing by index and touching nothing but
// its own node's table and address book.
func Build(cfg Config) *Testnet {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	sched := simtime.NewScheduler(simtime.NewClock(DefaultEpoch), simtime.SchedulerOpts{})
	net := simnet.New(simnet.Config{Seed: cfg.Seed + 1, Time: sched, Faults: cfg.Faults})

	popCfg := geo.DefaultPopulationConfig(cfg.N)
	popCfg.Seed = cfg.Seed + 2
	pop := geo.GeneratePopulation(popCfg)

	n := cfg.N
	tn := &Testnet{Cfg: cfg, Net: net, Sched: sched, Pop: pop,
		Nodes: make([]*core.Node, n), Classes: make([]simnet.Class, n), keys: make([]kbucket.Key, n)}

	seeds := make([]peer.Seed, n)
	for i := range seeds {
		seeds[i] = peer.DrawSeed(rng)
		switch x := rng.Float64(); {
		case x < cfg.FracDead:
			tn.Classes[i] = simnet.DeadDial
		case x < cfg.FracDead+cfg.FracSlow:
			tn.Classes[i] = simnet.Slow
		case x < cfg.FracDead+cfg.FracSlow+cfg.FracWSBroken:
			tn.Classes[i] = simnet.WSBroken
		}
	}
	links := make([]int, n*randomLinks)
	for i := range links {
		links[i] = rng.Intn(n)
	}

	idents := make([]peer.Identity, n)
	forEachNode(n, func(i int) {
		idents[i] = peer.IdentityFromSeed(seeds[i])
		tn.keys[i] = kbucket.KeyForPeer(idents[i].ID)
	})

	infos := make([]wire.PeerInfo, n)
	for i, ident := range idents {
		// By default every server is dialable and reachability is
		// expressed through the behaviour class; ReachabilityMix instead
		// honours the population's sampled NAT status (Fig 7's mix).
		ep := net.AddNode(ident.ID, simnet.NodeOpts{
			Region:   pop.Peers[i].Country,
			Dialable: !cfg.ReachabilityMix || pop.Peers[i].Dialable,
			Class:    tn.Classes[i],
		})
		node := core.New(ident, ep, core.Config{
			Mode:              dht.ModeServer,
			Region:            pop.Peers[i].Country,
			K:                 cfg.K,
			Alpha:             cfg.Alpha,
			QueryTimeout:      cfg.QueryTimeout,
			BitswapTimeout:    cfg.BitswapTimeout,
			OmitProviderAddrs: cfg.OmitProviderAddrs,
			ParallelDiscovery: cfg.ParallelDiscovery,
			Time:              sched,
		})
		tn.Nodes[i] = node
		infos[i] = node.Info()
	}

	tn.seedTables(infos, links)
	return tn
}

// seedTables wires the routing topology: each node learns its keyspace
// neighbours (so lookups converge on the true k closest) plus random
// long-range contacts (so lookups make exponential progress), the shape
// a converged Kademlia network has. Dead peers are seeded like everyone
// else: they are exactly the stale entries real tables accumulate.
// links holds node i's random contacts at [i*randomLinks, (i+1)*randomLinks).
func (tn *Testnet) seedTables(infos []wire.PeerInfo, links []int) {
	n := len(tn.Nodes)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return kbucket.Less(tn.keys[order[a]], tn.keys[order[b]])
	})
	pos := make([]int, n) // node index -> position in sorted order
	for p, idx := range order {
		pos[idx] = p
	}

	forEachNode(n, func(i int) {
		seed := func(j int) { tn.Nodes[i].DHT().Seed(infos[j], tn.keys[j]) }
		p := pos[i]
		for d := 1; d <= neighborLinks; d++ {
			seed(order[(p+d)%n])
			seed(order[(p-d%n+n)%n])
		}
		for _, j := range links[i*randomLinks : (i+1)*randomLinks] {
			seed(j)
		}
	})
}

// forEachNode calls fn(i) for every node index i in [0, n), over
// runtime.GOMAXPROCS(0) workers that each take one contiguous run of
// indices. fn(i) must write only node i's state (or slot i of a slice),
// so the result is the same however the indices are split.
func forEachNode(n int, fn func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(w*n/workers, (w+1)*n/workers)
	}
	wg.Wait()
}

// LiveNodes returns the nodes whose class responds normally.
func (tn *Testnet) LiveNodes() []*core.Node {
	var out []*core.Node
	for i, node := range tn.Nodes {
		if tn.Classes[i] == simnet.Normal {
			out = append(out, node)
		}
	}
	return out
}

// OnlineNodes returns the live nodes currently online — the bystander
// pool the churn experiments draw Bitswap neighbours from, so every
// router's opportunistic phase faces the same live neighbourhood.
func (tn *Testnet) OnlineNodes() []*core.Node {
	var out []*core.Node
	for _, node := range tn.LiveNodes() {
		if tn.Net.Online(node.ID()) {
			out = append(out, node)
		}
	}
	return out
}

// AddVantage attaches an instrumented measurement node in the given
// region (one of the §4.3 AWS VMs) with a seeded routing table.
func (tn *Testnet) AddVantage(region geo.Region, seed int64) *core.Node {
	return tn.addVantage(region, seed, routing.KindDHT, nil, nil)
}

// AddVantageStore attaches a vantage node backed by a specific block
// store (e.g. a PackStore) instead of the default in-memory store.
func (tn *Testnet) AddVantageStore(region geo.Region, seed int64, store block.Store) *core.Node {
	return tn.addVantage(region, seed, routing.KindDHT, nil, store)
}

// AddVantageRouting attaches a vantage node using a specific content
// router — the routing-comparison experiment puts vantages with
// different routers on the same network. set is the indexer topology
// the indexer and parallel routers use (from AddIndexerSet, or
// routing.NewIndexerSet over one group); nil means no indexers.
func (tn *Testnet) AddVantageRouting(region geo.Region, seed int64, kind routing.Kind, set *routing.IndexerSet) *core.Node {
	return tn.addVantage(region, seed, kind, set, nil)
}

func (tn *Testnet) addVantage(region geo.Region, seed int64, kind routing.Kind, set *routing.IndexerSet, store block.Store) *core.Node {
	rng := rand.New(rand.NewSource(seed))
	ident := peer.MustNewIdentity(rng)
	ep := tn.Net.AddNode(ident.ID, simnet.NodeOpts{
		Region:   region,
		Dialable: true,
		Class:    simnet.Normal,
	})
	node := core.New(ident, ep, core.Config{
		Mode:              dht.ModeServer,
		Region:            region,
		K:                 tn.Cfg.K,
		Alpha:             tn.Cfg.Alpha,
		QueryTimeout:      tn.Cfg.QueryTimeout,
		BitswapTimeout:    tn.Cfg.BitswapTimeout,
		OmitProviderAddrs: tn.Cfg.OmitProviderAddrs,
		ParallelDiscovery: tn.Cfg.ParallelDiscovery,
		Routing:           kind,
		IndexerSet:        set,
		Store:             store,
		Time:              tn.Sched,
	})
	// Seed with keyspace-spread contacts like a bootstrapped node.
	for r := 0; r < neighborLinks+randomLinks; r++ {
		j := rng.Intn(len(tn.Nodes))
		node.DHT().Seed(tn.Nodes[j].Info(), tn.keys[j])
	}
	return node
}

// AddGatewayFleet attaches n gateway vantage nodes spread round-robin
// across the AWS regions (the fleet points of presence). stores, when
// non-nil, supplies each instance's block store — typically a bounded
// block.LRUStore per edge instance, so the fleet's shared cache tier
// sits between small edges and the origin; nil keeps the default
// in-memory store. The builder consumes seeds seed..seed+n-1.
func (tn *Testnet) AddGatewayFleet(n int, seed int64, stores func(i int) block.Store) []*core.Node {
	nodes := make([]*core.Node, n)
	for i := range nodes {
		region := geo.AWSRegions[i%len(geo.AWSRegions)]
		var store block.Store
		if stores != nil {
			store = stores(i)
		}
		nodes[i] = tn.AddVantageStore(region, seed+int64(i), store)
	}
	return nodes
}

// AddIndexer attaches a delegated-routing indexer node to the network
// and returns it; pass its Info to indexer-routed nodes.
func (tn *Testnet) AddIndexer(region geo.Region, seed int64) *routing.Indexer {
	return tn.AddIndexerTTL(region, seed, 0)
}

// AddIndexerTTL attaches an indexer with a custom provider-record TTL
// (<= 0 selects the 24 h default) — churn-scenario tests shrink it so
// record expiry crosses the simulated window.
func (tn *Testnet) AddIndexerTTL(region geo.Region, seed int64, ttl time.Duration) *routing.Indexer {
	rng := rand.New(rand.NewSource(seed))
	ident := peer.MustNewIdentity(rng)
	ep := tn.Net.AddNode(ident.ID, simnet.NodeOpts{
		Region:   region,
		Dialable: true,
		Class:    simnet.Normal,
	})
	return routing.NewIndexer(ident, ep, routing.IndexerConfig{RecordTTL: ttl, Time: tn.Sched})
}

// IndexerFleet is a built sharded indexer deployment: the shard
// topology clients route by, plus the live indexer nodes grouped per
// shard (replica order matches the topology's).
type IndexerFleet struct {
	Set    *routing.IndexerSet
	Groups [][]*routing.Indexer // one replica group per shard
}

// Nodes returns every indexer in the fleet, shard-major.
func (f *IndexerFleet) Nodes() []*routing.Indexer {
	var out []*routing.Indexer
	for _, g := range f.Groups {
		out = append(out, g...)
	}
	return out
}

// Replica returns shard s's i-th replica (0 = the primary lookups try
// first).
func (f *IndexerFleet) Replica(s, i int) *routing.Indexer { return f.Groups[s][i] }

// AddIndexerSet attaches shards×replicas indexer nodes spread across
// the AWS regions, wires each shard's replica group for gossip, and
// returns the fleet. ttl <= 0 selects the 24 h record TTL default.
// Pass fleet.Set into AddVantageRouting so clients route by the same
// shard map the indexers replicate within. The builder consumes seeds
// seed..seed+shards×replicas-1 (identities derive from the seed, and a
// reused seed silently replaces the earlier peer on the simulator) —
// keep later vantage seeds outside that range.
func (tn *Testnet) AddIndexerSet(seed int64, shards, replicas int, ttl time.Duration) *IndexerFleet {
	if shards <= 0 {
		shards = 1
	}
	if replicas <= 0 {
		replicas = 1
	}
	fleet := &IndexerFleet{}
	groups := make([][]wire.PeerInfo, shards)
	for s := 0; s < shards; s++ {
		var group []*routing.Indexer
		for i := 0; i < replicas; i++ {
			region := geo.AWSRegions[(s*replicas+i)%len(geo.AWSRegions)]
			ix := tn.AddIndexerTTL(region, seed+int64(s*replicas+i), ttl)
			group = append(group, ix)
			groups[s] = append(groups[s], ix.Info())
		}
		fleet.Groups = append(fleet.Groups, group)
	}
	fleet.Set = routing.NewIndexerSet(groups)
	for s, group := range fleet.Groups {
		for _, ix := range group {
			ix.SetReplicaGroup(groups[s])
		}
	}
	return fleet
}

// SetOnline toggles a peer's simulated liveness — the one-shot churn
// lever; timeline-driven experiments use ScheduleTimeline instead.
// Addressing by PeerID replaces the old index-based variant: vantages
// and indexers are not in Nodes, so indices could not name every
// togglable peer.
func (tn *Testnet) SetOnline(id peer.ID, online bool) {
	tn.Net.SetOnline(id, online)
}

// ScheduleTimeline puts every server node's churn timeline on the
// scheduler: it applies each node's liveness at instant from, then
// registers one chained transition event per peer — each firing flips
// the peer at its exact session boundary and re-arms for the next, so
// publishes, refresh crawls, republishes and Bitswap sessions all face
// whichever peers the diurnal session model has online, at one queue
// event per transition. Transitions are capped at until. Timelines are
// index-aligned with Nodes (both derive from Pop); vantages and
// indexers are not in Nodes and stay online. It returns how many server
// nodes are online at from.
func (tn *Testnet) ScheduleTimeline(tl *churn.Timeline, from, until time.Time) int {
	online := 0
	for i, node := range tn.Nodes {
		if i >= len(tl.Peers) {
			break
		}
		pt := &tl.Peers[i]
		id := node.ID()
		up := pt.OnlineAt(from)
		tn.Net.SetOnline(id, up)
		if up {
			online++
		}
		var arm func(t time.Time)
		arm = func(t time.Time) {
			next, ok := pt.NextTransition(t)
			if !ok || next.After(until) {
				return
			}
			tn.Sched.At(next, func() {
				tn.Net.SetOnline(id, pt.OnlineAt(next))
				arm(next)
			})
		}
		arm(from)
	}
	return online
}

// FlushVantage resets a vantage node's connections and address book so
// the next retrieval pays the full discovery cost, as the §4.3
// experiment does between iterations.
func FlushVantage(n *core.Node) {
	n.Swarm().DisconnectAll()
	n.Swarm().Book().Clear()
}

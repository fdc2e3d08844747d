package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/ipfs"
)

// tcpEnv is one built tcp_pubret system: a full mesh of TCP nodes in
// this process.
type tcpEnv struct {
	cfg   *config
	nodes []*ipfs.Node
}

func setupTCP(ctx context.Context, cfg *config) (env, error) {
	e := &tcpEnv{cfg: cfg}
	n := cfg.sz.tcpNodes
	if n > ipfs.DefaultReplication || n < 2*cfg.clients {
		return nil, fmt.Errorf("tcp_pubret: %d nodes: want at most K = %d (full mesh) and two per client",
			n, ipfs.DefaultReplication)
	}
	var infos []ipfs.PeerInfo
	for i := 0; i < n; i++ {
		node, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: mix64(cfg.seed, uint64(i))})
		if err != nil {
			e.close()
			return nil, err
		}
		e.nodes = append(e.nodes, node)
		infos = append(infos, node.Info())
	}
	for i, node := range e.nodes {
		others := append(append([]ipfs.PeerInfo(nil), infos[:i]...), infos[i+1:]...)
		if err := node.Bootstrap(ctx, others); err != nil {
			e.close()
			return nil, fmt.Errorf("tcp_pubret: bootstrap node %d: %w", i, err)
		}
	}
	// With every pair connected a retrieval resolves by opportunistic
	// Bitswap; a missing link would put the fixed 1 s broadcast timeout
	// on the timed path.
	for i, a := range e.nodes {
		for j, b := range e.nodes {
			if i != j && !a.Swarm().Connected(b.ID()) {
				e.close()
				return nil, fmt.Errorf("tcp_pubret: node %d is not connected to node %d", i, j)
			}
		}
	}
	return e, nil
}

func (e *tcpEnv) close() {
	for _, n := range e.nodes {
		n.Close()
	}
}

// tcpClient publishes and retrieves among its own slice of the nodes, so
// one client's ClearStore never drops blocks the other is fetching;
// provider records still go to all peers.
type tcpClient struct {
	lane    int
	nodes   []*ipfs.Node
	rng     *rand.Rand
	payload []byte
	spans   *spanBuf
	// corruptNext damages the next retrieved object before it is
	// compared (config.corruptOp).
	corruptNext bool
	tally
	tcpCounts
}

// tcpCounts sums what the calls' results reported.
type tcpCounts struct {
	hits       int // retrievals resolved by opportunistic Bitswap
	walkRPCs   int
	storeRPCs  int
	wantHaves  int
	wantBlocks int
}

func (c *tcpCounts) add(o tcpCounts) {
	c.hits += o.hits
	c.walkRPCs += o.walkRPCs
	c.storeRPCs += o.storeRPCs
	c.wantHaves += o.wantHaves
	c.wantBlocks += o.wantBlocks
}

const chunkSize = 256 << 10 // core's default chunker

// stamp makes every chunk of the payload unique to this operation, which
// costs microseconds where regenerating the random megabyte would cost
// a visible share of the loop.
func (c *tcpClient) stamp(seed int64, op int) {
	for off := 0; off < len(c.payload); off += chunkSize {
		if off+24 > len(c.payload) {
			break
		}
		binary.LittleEndian.PutUint64(c.payload[off:], uint64(seed))
		binary.LittleEndian.PutUint64(c.payload[off+8:], uint64(c.lane)<<32|uint64(off/chunkSize))
		binary.LittleEndian.PutUint64(c.payload[off+16:], uint64(op))
	}
}

// pair runs one publish+retrieve pair and compares the retrieved bytes
// with the published ones.
func (c *tcpClient) pair(ctx context.Context, seed int64, op int) {
	pi := c.rng.Intn(len(c.nodes))
	ri := c.rng.Intn(len(c.nodes) - 1)
	if ri >= pi {
		ri++
	}
	p, r := c.nodes[pi], c.nodes[ri]

	g0 := time.Now()
	c.stamp(seed, op)
	t0 := time.Now()
	root, err := p.Add(c.payload)
	t1 := time.Now()
	var pres ipfs.PublishResult
	if err == nil {
		pres, err = p.Publish(ctx, root)
	}
	t2 := time.Now()
	if err != nil {
		c.failed++
		p.ClearStore()
		return
	}
	data, rres, err := r.Retrieve(ctx, root)
	t3 := time.Now()
	if c.corruptNext && len(data) > 0 {
		data[len(data)/2] ^= 0xff
		c.corruptNext = false
	}
	ok := err == nil && bytes.Equal(data, c.payload)
	t4 := time.Now()
	p.ClearStore()
	r.ClearStore()
	t5 := time.Now()
	if !ok {
		c.failed++
		return
	}
	c.ok(len(data))
	c.write.add(t2.Sub(t0))
	c.read.add(t3.Sub(t2))
	if rres.BitswapHit {
		c.hits++
	}
	c.walkRPCs += pres.Walk.Launched
	c.storeRPCs += pres.StoreAttempts
	c.wantHaves += rres.WantHaves
	c.wantBlocks += rres.WantBlocks

	if c.spans == nil {
		return
	}
	root0 := c.spans.reserve()
	c.spans.add(op, root0, "payload-gen", g0, t0)
	c.spans.add(op, root0, "add", t0, t1)
	pub := c.spans.add(op, root0, "publish", t1, t2)
	c.spans.phases(op, pub, t1, []string{"publish:walk", "publish:store"},
		[]time.Duration{pres.WalkDuration, pres.BatchDuration})
	ret := c.spans.add(op, root0, "retrieve", t2, t3)
	c.spans.phases(op, ret, t2, []string{"retrieve:discover", "retrieve:dial", "retrieve:fetch"},
		[]time.Duration{rres.Discover(), rres.Dial, rres.Fetch})
	c.spans.add(op, root0, "verify", t3, t4)
	c.spans.add(op, root0, "clear", t4, t5)
	c.spans.addAs(root0, op, 0, "pubret-pair", g0, t5)
}

func (e *tcpEnv) run(ctx context.Context, m *measurement) error {
	cfg := e.cfg
	per := len(e.nodes) / cfg.clients
	clients := make([]*tcpClient, cfg.clients)
	for i := range clients {
		rng := rand.New(rand.NewSource(mix64(cfg.seed, 200+uint64(i))))
		payload := make([]byte, cfg.sz.tcpPayload)
		rng.Read(payload)
		clients[i] = &tcpClient{
			lane: i, nodes: e.nodes[i*per : (i+1)*per], rng: rng,
			payload: payload, spans: m.tr.lane(i),
		}
	}
	// Operation numbers keep counting across warm-up and window so no
	// payload (hence no CID) repeats.
	base := make([]int, cfg.clients)
	op := func(c, i int) { clients[c].pair(ctx, cfg.seed, base[c]+i) }

	closedLoop(ctx, cfg.clients, time.Duration(cfg.warmup*float64(time.Second)), op)
	for i, cl := range clients {
		base[i] = cl.ops + cl.failed
		cl.tally, cl.tcpCounts = tally{}, tcpCounts{}
	}
	clients[0].corruptNext = cfg.corruptOp
	m.tr.reset()
	runtime.GC() // start the window without the warm-up's garbage

	m.mem.begin()
	m.window = closedLoop(ctx, cfg.clients, time.Duration(cfg.seconds*float64(time.Second)), op)
	m.mem.end()

	var tot tcpCounts
	for _, cl := range clients {
		m.merge(&cl.tally)
		tot.add(cl.tcpCounts)
	}
	m.ttfb = m.read // Retrieve hands back the whole object: first byte = last byte
	if m.tr == nil {
		return nil
	}

	ops := float64(m.ops)
	p50ms := func(name, spanName string) float64 {
		s := m.tr.durations(spanName)
		v := s.quantile(0.5) / nsPerMs
		m.setN(name, v, len(s))
		return v
	}
	add := p50ms("core.add_p50_ms", "add")
	provide := p50ms("routing.provide_p50_ms", "publish")
	p50ms("dht.provide_walk_p50_ms", "publish:walk")
	p50ms("dht.provide_store_p50_ms", "publish:store")
	discover := p50ms("core.retrieve_discover_p50_ms", "retrieve:discover")
	// Zero on a connected mesh, so not in the ledger; the identity below
	// still shows it.
	dial := m.tr.durations("retrieve:dial").quantile(0.5) / nsPerMs
	fetch := p50ms("core.retrieve_fetch_p50_ms", "retrieve:fetch")
	m.setN("core.retrieve_p99_ms", m.read.quantile(0.99)/nsPerMs, len(m.read))
	m.setN("core.publish_p90_ms", m.write.quantile(0.9)/nsPerMs, len(m.write))
	m.set("dht.walk_rpcs_per_publish", ratio(float64(tot.walkRPCs), ops))
	m.set("dht.store_rpcs_per_publish", ratio(float64(tot.storeRPCs), ops))
	m.set("bitswap.want_haves_per_retrieve", ratio(float64(tot.wantHaves), ops))
	m.set("bitswap.want_blocks_per_retrieve", ratio(float64(tot.wantBlocks), ops))
	m.set("core.bitswap_hit_ratio", ratio(float64(tot.hits), ops))
	m.set("core.alloc_kb_per_pair", ratio(float64(m.mem.allocBytes)/1024, ops))
	m.set("core.mallocs_per_pair", ratio(float64(m.mem.mallocs), ops))

	wp50, rp50 := m.write.quantile(0.5)/nsPerMs, m.read.quantile(0.5)/nsPerMs
	m.note("write_p50 %.3f ms = core.add_p50 %.3f + routing.provide_p50 %.3f + residual %.3f",
		wp50, add, provide, wp50-add-provide)
	m.note("latency_p50 %.3f ms = discover %.3f + dial %.3f + fetch %.3f + residual %.3f",
		rp50, discover, dial, fetch, rp50-discover-dial-fetch)
	return nil
}

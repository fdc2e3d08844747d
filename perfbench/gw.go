package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/gateway"
	"repro/internal/gwload"
	"repro/ipfs"
)

// catalogShapeSeed fixes the catalog's size-by-rank table and popularity
// curve for every run. The run seed varies the object bytes (so CIDs and
// DHT keys), the node identities and the request order; were it to also
// redraw the sizes of the few hottest objects, throughput would differ
// between seeds by more than any regression bound.
const catalogShapeSeed = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type gwObject struct {
	url  string
	cid  ipfs.Cid
	size int
	crc  uint32
}

// gwEnv is one built gw_http_zipf system: three origin nodes holding
// the catalog, one gateway node connected to all of them, and the
// gateway's HTTP server on loopback.
type gwEnv struct {
	cfg     *config
	cat     *gwload.Catalog
	objs    []gwObject
	origins []*ipfs.Node
	gwNode  *ipfs.Node
	gw      *ipfs.Gateway
	srv     *http.Server
	served  chan struct{}
	addNs   sample // per-object Add at the origin: this workload's write
}

func setupGateway(ctx context.Context, cfg *config) (env, error) {
	sz := cfg.sz
	e := &gwEnv{cfg: cfg, served: make(chan struct{})}
	e.cat = gwload.NewCatalog(gwload.CatalogConfig{
		NumObjects: sz.gwObjects, Seed: catalogShapeSeed, ZipfS: 1.05,
		MedianSize: sz.gwMedian, SizeSigma: 1.2, MaxSize: sz.gwMax,
	})
	var infos []ipfs.PeerInfo
	for i := 0; i < 3; i++ {
		n, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: mix64(cfg.seed, uint64(i))})
		if err != nil {
			e.close()
			return nil, err
		}
		e.origins = append(e.origins, n)
		infos = append(infos, n.Info())
	}
	rng := rand.New(rand.NewSource(mix64(cfg.seed, 100)))
	for i, o := range e.cat.Objects {
		data := make([]byte, o.Size)
		rng.Read(data)
		t0 := time.Now()
		root, err := e.origins[i%len(e.origins)].Add(data)
		e.addNs.add(time.Since(t0))
		if err != nil {
			e.close()
			return nil, fmt.Errorf("gw_http_zipf: add object %d: %w", i, err)
		}
		e.objs = append(e.objs, gwObject{cid: root, size: o.Size, crc: crc32.Checksum(data, castagnoli)})
	}

	var err error
	e.gwNode, err = ipfs.NewTCPNode(ipfs.TCPNodeConfig{
		Seed: mix64(cfg.seed, 50), Store: block.NewLRUStore(sz.gwStore),
	})
	if err != nil {
		e.close()
		return nil, err
	}
	// Connected to every origin, each miss is an opportunistic Bitswap
	// hit: no DHT walk and no 1 s broadcast timeout on the timed path.
	if err := e.gwNode.Bootstrap(ctx, infos); err != nil {
		e.close()
		return nil, fmt.Errorf("gw_http_zipf: bootstrap: %w", err)
	}
	for _, o := range e.origins {
		if !e.gwNode.Swarm().Connected(o.ID()) {
			e.close()
			return nil, fmt.Errorf("gw_http_zipf: gateway not connected to origin %s", o.ID().Short())
		}
	}
	e.gw = ipfs.NewTCPGateway(e.gwNode, sz.gwNginx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = &http.Server{Handler: e.gw}
	go func() {
		defer close(e.served)
		e.srv.Serve(ln) // returns ErrServerClosed from close()
	}()
	for i := range e.objs {
		e.objs[i].url = "http://" + ln.Addr().String() + "/ipfs/" + e.objs[i].cid.String()
	}
	return e, nil
}

func (e *gwEnv) close() {
	if e.srv != nil {
		e.srv.Close()
		<-e.served
	}
	if e.gwNode != nil {
		e.gwNode.Close()
	}
	for _, o := range e.origins {
		o.Close()
	}
}

// The three serving tiers of a single gateway, as the
// X-Ipfs-Gateway-Tier header and Response.Tier name them.
const (
	tierNginx     = gateway.TierNginx
	tierNodeStore = gateway.TierNodeStore
	tierNetwork   = gateway.TierNetwork
	numTiers      = int(gateway.TierNetwork) + 1
)

var tierByHeader = map[string]gateway.Tier{
	tierNginx.String():     tierNginx,
	tierNodeStore.String(): tierNodeStore,
	tierNetwork.String():   tierNetwork,
}

var tierSpan = [numTiers]string{"http-get:nginx", "http-get:nodestore", "http-get:network"}

// gwClient is one keep-alive HTTP/1.1 client and what it measured.
type gwClient struct {
	hc    *http.Client
	rng   *rand.Rand
	buf   []byte
	spans *spanBuf
	// corruptNext damages the next response body before it is checked
	// (config.corruptOp).
	corruptNext bool
	tally
}

func (e *gwEnv) newClient(lane int, spans *spanBuf) *gwClient {
	return &gwClient{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		rng:   rand.New(rand.NewSource(mix64(e.cfg.seed, 200+uint64(lane)))),
		buf:   make([]byte, e.cfg.sz.gwMax+1), // +1: an oversized body fails the length check
		spans: spans,
	}
}

// get issues one GET and checks status, tier header, length and
// checksum against what set-up recorded.
func (c *gwClient) get(ctx context.Context, op int, o *gwObject) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, o.url, nil)
	if err != nil {
		c.failed++
		return
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		c.failed++
		return
	}
	var n int
	var tFirst time.Time
	for err == nil && n < len(c.buf) {
		var k int
		k, err = resp.Body.Read(c.buf[n:])
		if k > 0 && tFirst.IsZero() {
			tFirst = time.Now()
		}
		n += k
	}
	t1 := time.Now()
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if c.corruptNext && n > 0 {
		c.buf[n/2] ^= 0xff
		c.corruptNext = false
	}
	tier, known := tierByHeader[resp.Header.Get("X-Ipfs-Gateway-Tier")]
	ok := (err == nil || err == io.EOF) && resp.StatusCode == http.StatusOK && known &&
		n == o.size && crc32.Checksum(c.buf[:n], castagnoli) == o.crc
	tv := time.Now()
	if !ok {
		c.failed++
		return
	}
	c.ok(n)
	c.read.add(t1.Sub(t0))
	c.ttfb.add(tFirst.Sub(t0))
	root := c.spans.reserve()
	c.spans.add(op, root, tierSpan[tier], t0, t1)
	c.spans.add(op, root, "verify", t1, tv)
	c.spans.addAs(root, op, 0, "gw-request", t0, tv)
}

func (e *gwEnv) run(ctx context.Context, m *measurement) error {
	cfg := e.cfg
	clients := make([]*gwClient, cfg.clients)
	for i := range clients {
		clients[i] = e.newClient(i, m.tr.lane(i))
		defer clients[i].hc.CloseIdleConnections()
	}
	op := func(c, i int) {
		cl := clients[c]
		cl.get(ctx, i, &e.objs[e.cat.SampleObject(cl.rng)])
	}

	// Warm-up: caches fill and connections open; nothing is kept.
	closedLoop(ctx, cfg.clients, time.Duration(cfg.warmup*float64(time.Second)), op)
	for _, cl := range clients {
		m.warm += cl.ops
		cl.tally = tally{}
	}
	clients[0].corruptNext = cfg.corruptOp
	m.tr.reset()
	runtime.GC() // start the window without the warm-up's garbage

	_, recv0, _, _ := e.gwNode.Bitswap().Stats()
	wants0, _ := e.gwNode.Bitswap().MsgStats()
	m.mem.begin()
	m.window = closedLoop(ctx, cfg.clients, time.Duration(cfg.seconds*float64(time.Second)), op)
	m.mem.end()
	_, recv1, _, _ := e.gwNode.Bitswap().Stats()
	wants1, _ := e.gwNode.Bitswap().MsgStats()

	for _, cl := range clients {
		m.merge(&cl.tally)
	}
	m.write = e.addNs
	if m.tr == nil {
		return nil
	}

	var byTier [numTiers]sample
	for t := range byTier {
		byTier[t] = m.tr.durations(tierSpan[t])
	}
	ops := float64(m.ops)
	misses := float64(len(byTier[tierNetwork]))
	m.set("gateway.tier_nginx_ratio", ratio(float64(len(byTier[tierNginx])), ops))
	m.set("gateway.tier_nodestore_ratio", ratio(float64(len(byTier[tierNodeStore])), ops))
	m.set("gateway.tier_network_ratio", ratio(misses, ops))
	m.setN("gateway.nginx_p50_us", byTier[tierNginx].quantile(0.5)/nsPerUs, len(byTier[tierNginx]))
	m.setN("gateway.nodestore_p50_us", byTier[tierNodeStore].quantile(0.5)/nsPerUs, len(byTier[tierNodeStore]))
	m.setN("gateway.network_p50_us", byTier[tierNetwork].quantile(0.5)/nsPerUs, len(byTier[tierNetwork]))
	m.setN("gateway.http_p99_ms", m.read.quantile(0.99)/nsPerMs, len(m.read))
	m.setN("gateway.ttfb_p50_us", m.ttfb.quantile(0.5)/nsPerUs, len(m.ttfb))
	// Process-wide: the HTTP clients allocate in the same heap.
	m.set("gateway.alloc_kb_per_req", ratio(float64(m.mem.allocBytes)/1024, ops))
	m.set("gateway.mallocs_per_req", ratio(float64(m.mem.mallocs), ops))
	m.set("bitswap.blocks_per_miss", ratio(float64(recv1-recv0), misses))
	m.set("bitswap.want_haves_per_miss", ratio(float64(wants1-wants0), misses))
	e.fetchDirect(ctx, m, byTier[tierNginx].quantile(0.5))
	return nil
}

// fetchDirect replays requests through Gateway.FetchData with no HTTP in
// the way, one caller, so the HTTP stack's share of a hit is visible as
// the difference to the tier's HTTP median.
func (e *gwEnv) fetchDirect(ctx context.Context, m *measurement, httpNginxP50 float64) {
	rng := rand.New(rand.NewSource(mix64(e.cfg.seed, 300)))
	var byTier [numTiers]sample
	for i := 0; i < e.cfg.sz.gwDirect; i++ {
		o := &e.objs[e.cat.SampleObject(rng)]
		t0 := time.Now()
		resp, data := e.gw.FetchData(ctx, ipfs.GatewayRequest{Cid: o.cid})
		d := time.Since(t0)
		if resp.Err != nil || len(data) != o.size || int(resp.Tier) >= numTiers {
			m.failed++
			continue
		}
		byTier[resp.Tier].add(d)
	}
	nginx := byTier[tierNginx].quantile(0.5)
	m.setN("gateway.fetch_direct_nginx_ns", nginx, len(byTier[tierNginx]))
	m.setN("gateway.fetch_direct_nodestore_ns", byTier[tierNodeStore].quantile(0.5), len(byTier[tierNodeStore]))
	m.set("gateway.http_overhead_us", (httpNginxP50-nginx)/nsPerUs)
}

// Package crawler implements the Peer-dataset methodology of §4.1: a
// crawler recursively asks peers for all entries in their k-buckets,
// starting from the bootstrap peers, until it finds no new entries. It
// records, per peer, whether a connection could be established
// (dialable vs undialable, Fig 4a) together with connection and crawl
// durations.
package crawler

import (
	"context"
	"sync"
	"time"

	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Observation is what one crawl learned about one peer.
type Observation struct {
	ID         peer.ID
	Addrs      []multiaddr.Multiaddr
	Dialable   bool
	ConnectDur time.Duration // simulated dial+negotiate time
	CrawlDur   time.Duration // simulated k-bucket enumeration time
	BucketSize int           // peers returned from its k-buckets
}

// Report is the outcome of one crawl.
type Report struct {
	Observations map[peer.ID]*Observation
	Duration     time.Duration // simulated end-to-end crawl time
}

// Dialable counts peers we connected to.
func (r *Report) Dialable() int {
	n := 0
	for _, o := range r.Observations {
		if o.Dialable {
			n++
		}
	}
	return n
}

// Undialable counts peers we discovered but could not connect to.
func (r *Report) Undialable() int { return len(r.Observations) - r.Dialable() }

// Config tunes the crawler.
type Config struct {
	// Workers bounds concurrent dials (the real crawler is massively
	// parallel; default 64).
	Workers int
	// ConnectTimeout bounds one dial attempt (default 8 s: above the
	// TCP dial timeout, below the websocket handshake timeout — the
	// crawler gives up on those, as the nebula crawler does).
	ConnectTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 64
	}
	if c.ConnectTimeout <= 0 {
		c.ConnectTimeout = 8 * time.Second
	}
	return c
}

// Crawler walks the DHT enumerating k-buckets.
type Crawler struct {
	cfg Config
	sw  *swarm.Swarm
}

// New creates a crawler over the given swarm (the crawler is itself a
// peer with an endpoint on the network), running on the swarm's time
// source.
func New(sw *swarm.Swarm, cfg Config) *Crawler {
	return &Crawler{cfg: cfg.withDefaults(), sw: sw}
}

// Crawl runs one full network crawl from the bootstrap peers: a
// breadth-first enumeration with bounded concurrency that terminates
// when no undiscovered peers remain.
func (c *Crawler) Crawl(ctx context.Context, bootstrap []wire.PeerInfo) *Report {
	src := c.sw.Time()
	start := src.Stamp()
	// Crawl traffic — snapshot refreshes included — lands under the
	// refresh budget category in the simulator's network-wide report.
	ctx = transport.WithRPCCategory(ctx, transport.CatRefresh)
	report := &Report{Observations: make(map[peer.ID]*Observation)}

	var mu sync.Mutex
	g := simtime.NewGroup(src)
	// The worker bound is a prefilled token channel: acquiring is a
	// receive (instrumented under the scheduler via Recv) and releasing
	// a deposit into the freed capacity, which never blocks — the shape
	// every leased goroutine needs for quiescence detection to be sound.
	sem := make(chan struct{}, c.cfg.Workers)
	for i := 0; i < c.cfg.Workers; i++ {
		sem <- struct{}{}
	}
	var enqueue func(info wire.PeerInfo)
	enqueue = func(info wire.PeerInfo) {
		mu.Lock()
		if info.ID == c.sw.Local() {
			mu.Unlock()
			return
		}
		if _, seen := report.Observations[info.ID]; seen {
			mu.Unlock()
			return
		}
		report.Observations[info.ID] = &Observation{ID: info.ID, Addrs: info.Addrs}
		mu.Unlock()

		g.Go(ctx, func(gctx context.Context) {
			if _, ok := simtime.Recv(gctx, src, sem); !ok {
				return
			}
			defer func() { sem <- struct{}{} }()
			c.visit(gctx, info, report, &mu, enqueue)
		})
	}

	for _, b := range bootstrap {
		enqueue(b)
	}
	g.Wait(ctx)
	report.Duration = src.Since(start)
	return report
}

// visit dials one peer, enumerates its k-buckets, and feeds newly
// discovered peers back into the crawl.
func (c *Crawler) visit(ctx context.Context, info wire.PeerInfo, report *Report, mu *sync.Mutex, enqueue func(wire.PeerInfo)) {
	src := c.sw.Time()
	dctx, cancel := src.WithTimeout(ctx, c.cfg.ConnectTimeout)
	defer cancel()

	connStart := src.Stamp()
	conn, _, err := c.sw.Connect(dctx, info.ID, info.Addrs)
	connDur := src.Since(connStart)

	mu.Lock()
	obs := report.Observations[info.ID]
	obs.ConnectDur = connDur
	mu.Unlock()
	if err != nil {
		return
	}

	crawlStart := src.Stamp()
	resp, err := conn.Request(dctx, wire.Message{Type: wire.TCrawl})
	crawlDur := src.Since(crawlStart)
	// Free the connection immediately: a crawl touches every peer in
	// the network and must not hold thousands of connections open.
	c.sw.Disconnect(info.ID)

	mu.Lock()
	obs.Dialable = true
	obs.CrawlDur = crawlDur
	if err == nil && resp.Type == wire.TNodes {
		obs.BucketSize = len(resp.Peers)
	}
	mu.Unlock()
	if err != nil || resp.Type != wire.TNodes {
		return
	}
	for _, pi := range resp.Peers {
		enqueue(pi)
	}
}

package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cid"
	"repro/internal/gateway"
	"repro/internal/geo"
	"repro/internal/gwload"
	"repro/internal/stats"
	"repro/internal/testnet"
)

// GatewayConfig tunes the §6.3 gateway experiment.
type GatewayConfig struct {
	NetworkSize int   // DHT servers backing unpinned content (default 60)
	Objects     int   // catalog size (default 1000)
	Requests    int   // requests replayed through the gateway (default 4000)
	TraceOnly   int   // extra statistical trace size for Figs 4b/6 (default 200000)
	CacheBytes  int64 // nginx cache size (default 64 MiB)
	Seed        int64
}

func (c GatewayConfig) withDefaults() GatewayConfig {
	if c.NetworkSize <= 0 {
		c.NetworkSize = 60
	}
	if c.Objects <= 0 {
		c.Objects = 1000
	}
	if c.Requests <= 0 {
		c.Requests = 4000
	}
	if c.TraceOnly <= 0 {
		c.TraceOnly = 200000
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	return c
}

// GatewayResults holds the gateway experiment outcome.
type GatewayResults struct {
	Cfg     GatewayConfig
	Log     []gateway.LogEntry
	Tiers   map[gateway.Tier]gateway.TierStats
	Trace   []gwload.Request // large statistical trace for Figs 4b/6
	Catalog *gwload.Catalog
	Day     time.Time
}

// RunGateway publishes a catalog into a simulated network (pinned
// objects into the gateway's node store, the rest via regular DHT
// publication), replays a diurnal one-day trace through the gateway,
// and aggregates the access log.
func RunGateway(cfg GatewayConfig) *GatewayResults {
	cfg = cfg.withDefaults()
	day := time.Date(2022, 1, 2, 0, 0, 0, 0, time.UTC)

	// Objects up to 1 MiB, Zipf skew 0.9, half of them pinned: not
	// gwload's production-trace defaults.
	cat := gwload.NewCatalog(gwload.CatalogConfig{
		NumObjects: cfg.Objects, Seed: cfg.Seed, MaxSize: 1 << 20,
		ZipfS: 0.9, PinnedFraction: 0.5,
	})

	tn := testnet.Build(testnet.Config{
		N: cfg.NetworkSize, Seed: cfg.Seed + 1,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	gwNode := tn.AddVantage("US", cfg.Seed+2) // the sampled gateway is US-located (§4.2)
	gw := gateway.New(gwNode, cfg.CacheBytes, tn.Sched)

	simulate(tn, func(ctx context.Context) {
		// Materialize and publish the catalog.
		rng := rand.New(rand.NewSource(cfg.Seed + 3))
		cids := make([]cid.Cid, cfg.Objects)
		live := tn.LiveNodes()
		for i, obj := range cat.Objects {
			data := make([]byte, obj.Size)
			rng.Read(data)
			if obj.Pinned {
				c, err := gw.Pin(data)
				if err != nil {
					panic(err)
				}
				cids[i] = c
				continue
			}
			host := live[rng.Intn(len(live))]
			pub, err := host.AddAndPublish(ctx, data)
			if err == nil {
				err = host.PublishPeerRecord(ctx)
			}
			if err != nil {
				panic(err)
			}
			cids[i] = pub.Cid
		}

		// Replay the request trace through the gateway.
		reqs := gwload.GenerateTrace(cat, gwload.TraceConfig{
			NumRequests: cfg.Requests, Day: day, Seed: cfg.Seed + 4,
		})
		for _, r := range reqs {
			gw.Fetch(ctx, gateway.Request{
				Cid:      cids[r.Object],
				Time:     r.Time,
				Country:  r.Country,
				UserID:   r.UserID,
				Referrer: r.Referrer,
			})
		}
	})

	// A bigger trace for the purely statistical figures.
	bigTrace := gwload.GenerateTrace(cat, gwload.TraceConfig{
		NumRequests: cfg.TraceOnly, Day: day, Seed: cfg.Seed + 5,
	})

	log := gw.Log()
	return &GatewayResults{
		Cfg:     cfg,
		Log:     log,
		Tiers:   gateway.Summarize(log),
		Trace:   bigTrace,
		Catalog: cat,
		Day:     day,
	}
}

// Table5 renders the per-tier latency and traffic shares.
func (r *GatewayResults) Table5() string {
	var totalReq int
	var totalBytes int64
	for _, s := range r.Tiers {
		totalReq += s.Requests
		totalBytes += s.Bytes
	}
	t := stats.NewTable("Tier", "Latency (median)", "Traffic served", "Requests served")
	order := []gateway.Tier{gateway.TierNginx, gateway.TierNodeStore, gateway.TierNetwork}
	for _, tier := range order {
		s := r.Tiers[tier]
		t.AddRow(tier.String(),
			fmt.Sprintf("%.3fs", s.MedianLatency.Seconds()),
			fmt.Sprintf("%.1f%%", 100*float64(s.Bytes)/float64(totalBytes)),
			fmt.Sprintf("%.1f%%", 100*float64(s.Requests)/float64(totalReq)))
	}
	return "Table 5: gateway traffic and latency by serving tier\n(" +
		cite("t5.nginx", "t5.store", "t5.origin") + ")\n" + t.String()
}

// Fig4b renders the diurnal request count (5-minute bins).
func (r *GatewayResults) Fig4b() string {
	var b strings.Builder
	b.WriteString("Figure 4b: gateway request count by time of day (5-min bins, gateway timezone)\n")
	for _, bin := range stats.Bins(r.Trace, 5*60, func(req gwload.Request) float64 { return req.Time.Sub(r.Day).Seconds() }) {
		b.WriteString(fmt.Sprintf("%02d:%02d %d\n", bin.Index*5/60, (bin.Index*5)%60, len(bin.Items)))
	}
	return b.String()
}

// Fig6 renders the geographic distribution of gateway users.
func (r *GatewayResults) Fig6() string {
	counts := make(map[geo.Region]int)
	for _, req := range r.Trace {
		counts[req.Country]++
	}
	t := stats.NewTable("Country", "Requests", "Share")
	for i, e := range ranked(counts) {
		if i >= 8 {
			break
		}
		t.AddRow(string(e.key), e.n, fmt.Sprintf("%.1f%%", 100*float64(e.n)/float64(len(r.Trace))))
	}
	return "Figure 6: geographical distribution of gateway users (" + cite("f6.users") + ")\n" + t.String()
}

// Fig11a renders the latency and object-size distributions.
func (r *GatewayResults) Fig11a(points int) string {
	lat := stats.NewSample()
	size := stats.NewSample()
	for _, e := range r.Log {
		if e.Err() {
			continue
		}
		lat.Add(e.Latency.Seconds())
		size.Add(float64(e.Bytes) / 1024)
	}
	var b strings.Builder
	b.WriteString("Figure 11a: gateway response latency and object size distributions\n")
	b.WriteString(fmt.Sprintf("# object size: median=%.1fKB above100KB=%.3f (%s)\n",
		size.Median(), 1-size.FractionBelow(100), cite("f11.size")))
	b.WriteString(fmt.Sprintf("# under 250ms: %.3f (%s)\n", lat.FractionBelow(0.25), cite("f11.fast")))
	b.WriteString(fmt.Sprintf("# size-latency Pearson r=%.3f (%s)\n", sizeLatencyCorrelation(r.Log), cite("f11.r")))
	b.WriteString(stats.FormatCDF("fig11a latency seconds", lat.CDF(points)))
	b.WriteString(stats.FormatCDF("fig11a size KB", size.CDF(points)))
	return b.String()
}

func sizeLatencyCorrelation(log []gateway.LogEntry) float64 {
	var xs, ys []float64
	for _, e := range log {
		if e.Err() {
			continue
		}
		xs = append(xs, float64(e.Bytes))
		ys = append(ys, e.Latency.Seconds())
	}
	return stats.Pearson(xs, ys)
}

// Fig11b renders cached vs non-cached traffic per 30-minute bin.
func (r *GatewayResults) Fig11b() string {
	var served []gateway.LogEntry
	for _, e := range r.Log {
		if !e.Err() {
			served = append(served, e)
		}
	}
	var b strings.Builder
	b.WriteString("Figure 11b: cached vs non-cached traffic share per 30-min bin\n")
	for _, bin := range stats.Bins(served, 30, func(e gateway.LogEntry) float64 { return e.Time.Sub(r.Day).Minutes() }) {
		var cached, total float64
		for _, e := range bin.Items {
			total += float64(e.Bytes)
			if e.Tier != gateway.TierNetwork {
				cached += float64(e.Bytes)
			}
		}
		frac := 0.0
		if total > 0 {
			frac = cached / total
		}
		b.WriteString(fmt.Sprintf("%02d:%02d cached=%.3f\n", bin.Index/2, (bin.Index%2)*30, frac))
	}
	return b.String()
}

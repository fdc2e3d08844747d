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
	"repro/internal/stats"
	"repro/internal/testnet"
)

// AblationConfig tunes the design-choice sweeps of DESIGN.md §5.
type AblationConfig struct {
	NetworkSize int
	Iterations  int
	Seed        int64
}

func (c AblationConfig) withDefaults() AblationConfig {
	if c.NetworkSize <= 0 {
		c.NetworkSize = 300
	}
	if c.Iterations <= 0 {
		c.Iterations = 6
	}
	if c.Seed == 0 {
		c.Seed = 23
	}
	return c
}

// ReplicationPoint is one row of the k-sweep.
type ReplicationPoint struct {
	K              int
	PubMedian      time.Duration
	SurvivalRate   float64 // records still resolvable after churn
	StoreSuccesses float64 // average records stored per publish
}

// RunReplicationSweep varies the replication factor k and measures the
// §3.1 trade-off: publication cost vs record survival under churn.
func RunReplicationSweep(cfg AblationConfig, ks []int, churnFraction float64) []ReplicationPoint {
	cfg = cfg.withDefaults()
	if len(ks) == 0 {
		ks = []int{5, 10, 20, 40}
	}
	if churnFraction <= 0 {
		churnFraction = 0.45
	}
	var out []ReplicationPoint
	for _, k := range ks {
		tn := testnet.Build(testnet.Config{
			N: cfg.NetworkSize, Seed: cfg.Seed, K: k,
			FracDead: 0.10, FracSlow: 0.05, FracWSBroken: 0.01,
		})
		rng := rand.New(rand.NewSource(cfg.Seed + int64(k)))
		pub := tn.AddVantage(geo.EuCentral1, cfg.Seed+int64(100+k))
		get := tn.AddVantage(geo.UsWest1, cfg.Seed+int64(200+k))
		pubDur := stats.NewSample()
		var stored float64
		var roots []cid.Cid
		survived := 0
		simulate(tn, func(ctx context.Context) {
			pub.DHT().PublishPeerRecord(ctx)
			payload := make([]byte, 64*1024)
			for i := 0; i < cfg.Iterations; i++ {
				rng.Read(payload)
				res, err := pub.AddAndPublish(ctx, payload)
				if err != nil {
					continue
				}
				pubDur.AddDuration(res.TotalDuration)
				stored += float64(res.StoreOK)
				roots = append(roots, res.Cid)
			}

			// Churn: a fraction of the network departs.
			perm := rng.Perm(len(tn.Nodes))
			for _, idx := range perm[:int(churnFraction*float64(len(tn.Nodes)))] {
				tn.Net.SetOnline(tn.Nodes[idx].ID(), false)
			}

			for _, root := range roots {
				testnet.FlushVantage(get)
				if _, _, err := get.Retrieve(ctx, root); err == nil {
					survived++
				}
				get.ClearStore()
			}
		})
		point := ReplicationPoint{K: k}
		if pubDur.Len() > 0 {
			point.PubMedian = time.Duration(pubDur.Median() * float64(time.Second))
			point.StoreSuccesses = stored / float64(pubDur.Len())
		}
		if len(roots) > 0 {
			point.SurvivalRate = float64(survived) / float64(len(roots))
		}
		out = append(out, point)
	}
	return out
}

// AlphaPoint is one row of the α-sweep.
type AlphaPoint struct {
	Alpha      int
	RetrMedian time.Duration
	PubMedian  time.Duration
}

// RunAlphaSweep varies lookup concurrency α (§3.2 uses 3).
func RunAlphaSweep(cfg AblationConfig, alphas []int) []AlphaPoint {
	cfg = cfg.withDefaults()
	if len(alphas) == 0 {
		alphas = []int{1, 3, 5, 10}
	}
	var out []AlphaPoint
	for _, a := range alphas {
		res := RunPerformance(PerfConfig{
			NetworkSize:   cfg.NetworkSize,
			IterationsPer: cfg.Iterations / 3,
			Seed:          cfg.Seed,
			Alpha:         a,
		})
		retr := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.RetrOverall })
		pub := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.PubOverall })
		pt := AlphaPoint{Alpha: a}
		if retr.Len() > 0 {
			pt.RetrMedian = time.Duration(retr.Median() * float64(time.Second))
		}
		if pub.Len() > 0 {
			pt.PubMedian = time.Duration(pub.Median() * float64(time.Second))
		}
		out = append(out, pt)
	}
	return out
}

// DiscoveryPoint compares serial vs parallel discovery (§6.2).
type DiscoveryPoint struct {
	Parallel   bool
	RetrMedian time.Duration
	StretchP50 float64
}

// RunParallelDiscovery compares the deployed serial Bitswap-then-DHT
// flow against the proposed parallel one.
func RunParallelDiscovery(cfg AblationConfig) []DiscoveryPoint {
	cfg = cfg.withDefaults()
	var out []DiscoveryPoint
	for _, parallel := range []bool{false, true} {
		res := RunPerformance(PerfConfig{
			NetworkSize:       cfg.NetworkSize,
			IterationsPer:     cfg.Iterations / 2,
			Seed:              cfg.Seed,
			ParallelDiscovery: parallel,
		})
		retr := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.RetrOverall })
		st := res.combined(func(rp *RegionPerf) *stats.Sample { return rp.Stretch })
		pt := DiscoveryPoint{Parallel: parallel}
		if retr.Len() > 0 {
			pt.RetrMedian = time.Duration(retr.Median() * float64(time.Second))
		}
		if st.Len() > 0 {
			pt.StretchP50 = st.Median()
		}
		out = append(out, pt)
	}
	return out
}

// ClientServerPoint compares walk latency with and without unreachable
// peers polluting routing tables (§6.4: the v0.5 client/server split).
type ClientServerPoint struct {
	SplitEnabled bool
	PubMedian    time.Duration
	RetrMedian   time.Duration
}

// RunClientServerSplit compares the post-v0.5 behaviour (NAT'd peers
// excluded from routing tables: low dead fraction) against the pre-v0.5
// world where unreachable peers pollute tables.
func RunClientServerSplit(cfg AblationConfig) []ClientServerPoint {
	cfg = cfg.withDefaults()
	var out []ClientServerPoint
	for _, split := range []bool{true, false} {
		dead := 0.12 // stale entries only
		if !split {
			dead = 0.45 // NAT'd peers join tables too (§2.3's motivation)
		}
		tn := testnet.Build(testnet.Config{
			N: cfg.NetworkSize, Seed: cfg.Seed,
			FracDead: dead, FracSlow: 0.05, FracWSBroken: 0.01,
			OmitProviderAddrs: true,
		})
		pub := tn.AddVantage(geo.EuCentral1, cfg.Seed+1)
		get := tn.AddVantage(geo.UsWest1, cfg.Seed+2)
		rng := rand.New(rand.NewSource(cfg.Seed + 3))
		pubS, retrS := stats.NewSample(), stats.NewSample()
		simulate(tn, func(ctx context.Context) {
			pub.DHT().PublishPeerRecord(ctx)
			payload := make([]byte, 64*1024)
			for i := 0; i < cfg.Iterations; i++ {
				rng.Read(payload)
				res, err := pub.AddAndPublish(ctx, payload)
				if err != nil {
					continue
				}
				pubS.AddDuration(res.TotalDuration)
				testnet.FlushVantage(get)
				if _, rres, err := get.Retrieve(ctx, res.Cid); err == nil {
					retrS.AddDuration(rres.Total)
				}
				get.ClearStore()
			}
		})
		pt := ClientServerPoint{SplitEnabled: split}
		if pubS.Len() > 0 {
			pt.PubMedian = time.Duration(pubS.Median() * float64(time.Second))
		}
		if retrS.Len() > 0 {
			pt.RetrMedian = time.Duration(retrS.Median() * float64(time.Second))
		}
		out = append(out, pt)
	}
	return out
}

// CachePoint is one row of the gateway cache-size sweep.
type CachePoint struct {
	CacheBytes int64
	NginxHit   float64
	Combined   float64 // nginx + node store
}

// RunGatewayCacheSweep varies the nginx cache size and measures hit
// rates, the §6.3 knob.
func RunGatewayCacheSweep(cfg AblationConfig, sizes []int64) []CachePoint {
	cfg = cfg.withDefaults()
	if len(sizes) == 0 {
		sizes = []int64{4 << 20, 16 << 20, 64 << 20}
	}
	var out []CachePoint
	for _, size := range sizes {
		res := RunGateway(GatewayConfig{
			NetworkSize: 40, Objects: 150, Requests: 1500,
			CacheBytes: size, Seed: cfg.Seed,
		})
		var total, nginx, node int
		for tier, s := range res.Tiers {
			total += s.Requests
			switch tier {
			case gateway.TierNginx:
				nginx = s.Requests
			case gateway.TierNodeStore:
				node = s.Requests
			}
		}
		pt := CachePoint{CacheBytes: size}
		if total > 0 {
			pt.NginxHit = float64(nginx) / float64(total)
			pt.Combined = float64(nginx+node) / float64(total)
		}
		out = append(out, pt)
	}
	return out
}

// RenderAblations formats sweep results for the harness.
func RenderAblations(reps []ReplicationPoint, alphas []AlphaPoint, disc []DiscoveryPoint, cs []ClientServerPoint, caches []CachePoint) string {
	var b strings.Builder
	if len(reps) > 0 {
		t := stats.NewTable("k", "Pub median", "Records stored", "Survival after churn")
		for _, p := range reps {
			t.AddRow(p.K, p.PubMedian, fmt.Sprintf("%.1f", p.StoreSuccesses), fmt.Sprintf("%.0f%%", 100*p.SurvivalRate))
		}
		b.WriteString("Ablation: replication factor k (" + cite("abl.k") + ")\n" + t.String() + "\n")
	}
	if len(alphas) > 0 {
		t := stats.NewTable("alpha", "Retrieval median", "Publication median")
		for _, p := range alphas {
			t.AddRow(p.Alpha, p.RetrMedian, p.PubMedian)
		}
		b.WriteString("Ablation: lookup concurrency alpha (" + cite("abl.alpha") + ")\n" + t.String() + "\n")
	}
	if len(disc) > 0 {
		t := stats.NewTable("Parallel discovery", "Retrieval median", "Stretch p50")
		for _, p := range disc {
			t.AddRow(p.Parallel, p.RetrMedian, fmt.Sprintf("%.2f", p.StretchP50))
		}
		b.WriteString("Ablation: Bitswap/DHT parallel discovery (§6.2 proposal)\n" + t.String() + "\n")
	}
	if len(cs) > 0 {
		t := stats.NewTable("Client/server split", "Pub median", "Retrieval median")
		for _, p := range cs {
			t.AddRow(p.SplitEnabled, p.PubMedian, p.RetrMedian)
		}
		b.WriteString("Ablation: DHT client/server split (§6.4)\n" + t.String() + "\n")
	}
	if len(caches) > 0 {
		t := stats.NewTable("Cache size", "nginx hit rate", "combined hit rate")
		for _, p := range caches {
			t.AddRow(fmt.Sprintf("%dMiB", p.CacheBytes>>20), fmt.Sprintf("%.1f%%", 100*p.NginxHit), fmt.Sprintf("%.1f%%", 100*p.Combined))
		}
		b.WriteString("Ablation: gateway nginx cache size\n" + t.String() + "\n")
	}
	return b.String()
}

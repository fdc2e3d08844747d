// Package experiments regenerates every table and figure of the
// paper's evaluation (§5–§6) against the simulated network. Each
// experiment returns a results object with a Render method that prints
// the same rows/series the paper reports.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/stats"
	"repro/internal/testnet"
)

// PerfConfig tunes the §4.3 performance experiment: six vantage nodes
// publish 0.5 MB objects and retrieve each other's publications.
type PerfConfig struct {
	NetworkSize     int // DHT servers in the simulated network (default 600)
	IterationsPer   int // publications per region (paper: ~547; default 8)
	ObjectSizeBytes int // 0.5 MB
	Seed            int64
	// Ablation knobs.
	K                 int
	Alpha             int
	ParallelDiscovery bool
}

func (c PerfConfig) withDefaults() PerfConfig {
	if c.NetworkSize <= 0 {
		c.NetworkSize = 600
	}
	if c.IterationsPer <= 0 {
		c.IterationsPer = 8
	}
	if c.ObjectSizeBytes <= 0 {
		c.ObjectSizeBytes = 512 * 1024
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// RegionPerf aggregates one vantage region's measurements.
type RegionPerf struct {
	Publications int
	Retrievals   int

	PubOverall *stats.Sample // Fig 9a
	PubWalk    *stats.Sample // Fig 9b
	PubBatch   *stats.Sample // Fig 9c

	RetrOverall *stats.Sample // Fig 9d
	RetrWalks   *stats.Sample // Fig 9e (both walks combined)
	RetrFetch   *stats.Sample // Fig 9f

	Stretch          *stats.Sample // Fig 10a
	StretchNoBitswap *stats.Sample // Fig 10b
}

func newRegionPerf() *RegionPerf {
	return &RegionPerf{
		PubOverall: stats.NewSample(), PubWalk: stats.NewSample(), PubBatch: stats.NewSample(),
		RetrOverall: stats.NewSample(), RetrWalks: stats.NewSample(), RetrFetch: stats.NewSample(),
		Stretch: stats.NewSample(), StretchNoBitswap: stats.NewSample(),
	}
}

// PerfResults holds the full experiment outcome.
type PerfResults struct {
	Cfg       PerfConfig
	Regions   map[geo.Region]*RegionPerf
	Successes int
	Failures  int
}

// RunPerformance executes the §4.3 protocol: per iteration, one
// vantage node announces a fresh 0.5 MB object, all others retrieve it,
// then disconnect so the next retrieval cannot shortcut via Bitswap.
func RunPerformance(cfg PerfConfig) *PerfResults {
	cfg = cfg.withDefaults()
	tn := testnet.Build(testnet.Config{
		N:     cfg.NetworkSize,
		Seed:  cfg.Seed,
		K:     cfg.K,
		Alpha: cfg.Alpha,
		// The live network keeps stale entries, slow peers and broken
		// websocket transports (Fig 9c's spikes).
		FracDead: 0.15, FracSlow: 0.08, FracWSBroken: 0.02,
		OmitProviderAddrs: true,
		ParallelDiscovery: cfg.ParallelDiscovery,
	})
	rng := rand.New(rand.NewSource(cfg.Seed + 100))

	res := &PerfResults{Cfg: cfg, Regions: make(map[geo.Region]*RegionPerf)}
	simulate(tn, func(ctx context.Context) {
		vantages := make(map[geo.Region]*core.Node, len(geo.AWSRegions))
		for i, r := range geo.AWSRegions {
			vantages[r] = tn.AddVantage(r, cfg.Seed+int64(1000+i))
			res.Regions[r] = newRegionPerf()
			// Each vantage publishes its peer record once, as a node
			// joining the network does.
			if err := vantages[r].DHT().PublishPeerRecord(ctx); err != nil {
				res.Failures++
			}
		}
		live := tn.LiveNodes()

		payload := make([]byte, cfg.ObjectSizeBytes)
		for iter := 0; iter < cfg.IterationsPer; iter++ {
			for _, pubRegion := range geo.AWSRegions {
				publisher := vantages[pubRegion]
				rng.Read(payload)
				// Publish: Fig 9a–c phases.
				pub, err := publisher.AddAndPublish(ctx, payload)
				rp := res.Regions[pubRegion]
				rp.Publications++
				if err != nil {
					res.Failures++
					continue
				}
				res.Successes++
				rp.PubOverall.AddDuration(pub.TotalDuration)
				rp.PubWalk.AddDuration(pub.WalkDuration)
				rp.PubBatch.AddDuration(pub.BatchDuration)

				// All other regions retrieve.
				for _, getRegion := range geo.AWSRegions {
					if getRegion == pubRegion {
						continue
					}
					getter := vantages[getRegion]
					// Fresh state per retrieval, then connect to a few
					// bystanders so the Bitswap phase runs (and misses) as
					// in the paper's setup.
					testnet.FlushVantage(getter)
					for i := 0; i < 3; i++ {
						b := live[rng.Intn(len(live))]
						getter.Swarm().Connect(ctx, b.ID(), b.Addrs())
					}
					gr := res.Regions[getRegion]
					gr.Retrievals++
					data, rres, err := getter.Retrieve(ctx, pub.Cid)
					if err != nil || len(data) != cfg.ObjectSizeBytes {
						res.Failures++
						continue
					}
					res.Successes++
					gr.RetrOverall.AddDuration(rres.Total)
					gr.RetrWalks.AddDuration(rres.ProviderWalk + rres.PeerWalk)
					gr.RetrFetch.AddDuration(rres.Dial + rres.Fetch)
					gr.Stretch.Add(rres.Stretch())
					gr.StretchNoBitswap.Add(rres.StretchWithoutBitswap())
					// Drop the fetched blocks so the next iteration's
					// retrieval is never satisfied locally.
					getter.ClearStore()
				}
			}
		}
	})
	return res
}

// Table1 renders the publication/retrieval counts per region.
func (r *PerfResults) Table1() string {
	t := stats.NewTable("AWS Region", "Publications", "Retrievals")
	totalP, totalR := 0, 0
	for _, region := range geo.AWSRegions {
		rp := r.Regions[region]
		t.AddRow(string(region), rp.Publications, rp.Retrievals)
		totalP += rp.Publications
		totalR += rp.Retrievals
	}
	t.AddRow("Total", totalP, totalR)
	return "Table 1: publication and retrieval operations per region\n" + t.String()
}

// Table4 renders latency percentiles per region.
func (r *PerfResults) Table4() string {
	t := stats.NewTable("AWS Region", "Pub p50", "Pub p90", "Pub p95", "Retr p50", "Retr p90", "Retr p95")
	for _, region := range geo.AWSRegions {
		rp := r.Regions[region]
		t.AddRow(string(region),
			fmt.Sprintf("%.2fs", rp.PubOverall.Percentile(50)),
			fmt.Sprintf("%.2fs", rp.PubOverall.Percentile(90)),
			fmt.Sprintf("%.2fs", rp.PubOverall.Percentile(95)),
			fmt.Sprintf("%.2fs", rp.RetrOverall.Percentile(50)),
			fmt.Sprintf("%.2fs", rp.RetrOverall.Percentile(90)),
			fmt.Sprintf("%.2fs", rp.RetrOverall.Percentile(95)))
	}
	return "Table 4: DHT publication and retrieval latency percentiles\n" + t.String()
}

// combined merges a per-region sample across regions.
func (r *PerfResults) combined(pick func(*RegionPerf) *stats.Sample) *stats.Sample {
	all := stats.NewSample()
	for _, region := range geo.AWSRegions { // a fixed order: float sums depend on it
		for _, v := range pick(r.Regions[region]).Values() {
			all.Add(v)
		}
	}
	return all
}

// Fig9 renders the six CDF panels.
func (r *PerfResults) Fig9(points int) string {
	var b strings.Builder
	b.WriteString("Figure 9: content publication (a-c) and retrieval (d-f) CDFs, seconds\n")
	panels := []struct {
		name string
		pick func(*RegionPerf) *stats.Sample
	}{
		{"fig9a overall publication", func(rp *RegionPerf) *stats.Sample { return rp.PubOverall }},
		{"fig9b publication DHT walk", func(rp *RegionPerf) *stats.Sample { return rp.PubWalk }},
		{"fig9c provider record RPC batch", func(rp *RegionPerf) *stats.Sample { return rp.PubBatch }},
		{"fig9d overall retrieval", func(rp *RegionPerf) *stats.Sample { return rp.RetrOverall }},
		{"fig9e retrieval DHT walks", func(rp *RegionPerf) *stats.Sample { return rp.RetrWalks }},
		{"fig9f content fetch", func(rp *RegionPerf) *stats.Sample { return rp.RetrFetch }},
	}
	for _, p := range panels {
		for _, region := range geo.AWSRegions {
			s := p.pick(r.Regions[region])
			if s.Len() == 0 {
				continue
			}
			b.WriteString(stats.FormatCDF(fmt.Sprintf("%s [%s]", p.name, region), s.CDF(points)))
		}
	}
	return b.String()
}

// Fig10 renders the stretch CDFs with and without the Bitswap timeout.
func (r *PerfResults) Fig10(points int) string {
	var b strings.Builder
	b.WriteString("Figure 10: retrieval stretch CDFs (Eq 2)\n")
	for _, region := range geo.AWSRegions {
		rp := r.Regions[region]
		if rp.Stretch.Len() == 0 {
			continue
		}
		b.WriteString(stats.FormatCDF(fmt.Sprintf("fig10a stretch [%s]", region), rp.Stretch.CDF(points)))
	}
	for _, region := range geo.AWSRegions {
		rp := r.Regions[region]
		if rp.StretchNoBitswap.Len() == 0 {
			continue
		}
		b.WriteString(stats.FormatCDF(fmt.Sprintf("fig10b stretch w/o bitswap [%s]", region), rp.StretchNoBitswap.CDF(points)))
	}
	return b.String()
}

// Summary prints the headline comparisons of §6.1–6.2.
func (r *PerfResults) Summary() string {
	pub := r.combined(func(rp *RegionPerf) *stats.Sample { return rp.PubOverall })
	walk := r.combined(func(rp *RegionPerf) *stats.Sample { return rp.PubWalk })
	retr := r.combined(func(rp *RegionPerf) *stats.Sample { return rp.RetrOverall })
	rwalks := r.combined(func(rp *RegionPerf) *stats.Sample { return rp.RetrWalks })
	stretch := r.combined(func(rp *RegionPerf) *stats.Sample { return rp.Stretch })

	var b strings.Builder
	fmt.Fprintf(&b, "publication: p50=%.1fs p90=%.1fs p95=%.1fs (paper: 33.8 / 112.3 / 138.1)\n",
		pub.Percentile(50), pub.Percentile(90), pub.Percentile(95))
	if pub.Mean() > 0 {
		fmt.Fprintf(&b, "walk share of publication delay: %.1f%% (paper: 87.9%%)\n", 100*walk.Mean()/pub.Mean())
	}
	fmt.Fprintf(&b, "retrieval: p50=%.2fs p90=%.2fs p95=%.2fs (paper: 2.90 / 4.34 / 4.74)\n",
		retr.Percentile(50), retr.Percentile(90), retr.Percentile(95))
	fmt.Fprintf(&b, "retrieval both-walks p50=%.2fs (paper: <2s for 50%%; single walk median 0.62s)\n",
		rwalks.Percentile(50))
	fmt.Fprintf(&b, "stretch p50=%.1f (paper: ~4.3)\n", stretch.Percentile(50))
	fmt.Fprintf(&b, "operations: %d ok, %d failed (paper reports 100%% retrieval success)\n",
		r.Successes, r.Failures)
	return b.String()
}

package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/churn"
	"repro/internal/crawler"
	"repro/internal/geo"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/swarm"
	"repro/internal/testnet"
	"repro/internal/wire"
)

// DeployConfig tunes the §5 deployment-scale analysis.
type DeployConfig struct {
	// PopulationSize scales the synthetic network (the paper observed
	// ~200k PeerIDs; default 20000 for the statistical analyses).
	PopulationSize int
	// CrawlNetworkSize is the (smaller) live network the §4.1 crawler
	// actually walks each epoch (default 800).
	CrawlNetworkSize int
	// CrawlEpochs and CrawlInterval drive the Fig 4a time series
	// (default 12 epochs, 30 simulated minutes apart as in §4.1).
	CrawlEpochs   int
	CrawlInterval time.Duration
	Seed          int64
}

// deployWindow is the churn observation window.
const deployWindow = 24 * time.Hour

func (c DeployConfig) withDefaults() DeployConfig {
	if c.PopulationSize <= 0 {
		c.PopulationSize = 20000
	}
	if c.CrawlNetworkSize <= 0 {
		c.CrawlNetworkSize = 800
	}
	if c.CrawlEpochs <= 0 {
		c.CrawlEpochs = 12
	}
	if c.CrawlInterval <= 0 {
		c.CrawlInterval = 30 * time.Minute
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	return c
}

// CrawlEpoch is one Fig 4a data point.
type CrawlEpoch struct {
	Time       time.Time
	Total      int
	Dialable   int
	Undialable int
}

// DeployResults aggregates the §5 analyses.
type DeployResults struct {
	Cfg      DeployConfig
	Pop      *geo.Population
	Timeline *churn.Timeline // deployWindow-long: Fig 4a / Fig 8
	Epochs   []CrawlEpoch    // Fig 4a
}

// RunDeployment generates the population, its churn timeline, and runs
// repeated crawls of a live sub-network.
func RunDeployment(cfg DeployConfig) *DeployResults {
	cfg = cfg.withDefaults()
	popCfg := geo.DefaultPopulationConfig(cfg.PopulationSize)
	popCfg.Seed = cfg.Seed
	pop := geo.GeneratePopulation(popCfg)

	epochStart := testnet.DefaultEpoch
	tl := churn.GenerateTimeline(pop, churn.TimelineConfig{
		Start: epochStart, Duration: deployWindow, Seed: cfg.Seed + 1,
	})
	res := &DeployResults{Cfg: cfg, Pop: pop, Timeline: tl}

	// Fig 4a: repeated crawls of a live network whose peers follow the
	// first CrawlNetworkSize timelines.
	tn := testnet.Build(testnet.Config{
		N: cfg.CrawlNetworkSize, Seed: cfg.Seed + 2,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	ident := peer.MustNewIdentity(rand.New(rand.NewSource(cfg.Seed + 3)))
	ep := tn.Net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true})
	cr := crawler.New(swarm.New(ident, ep, tn.Sched), crawler.Config{Workers: 96})

	simulate(tn, func(ctx context.Context) {
		for e := 0; e < cfg.CrawlEpochs; e++ {
			now := epochStart.Add(time.Duration(e) * cfg.CrawlInterval)
			if tn.Sched.SleepUntil(ctx, now) != nil {
				return
			}
			var boot []int
			for i := range tn.Nodes {
				online := tl.Peers[i].OnlineAt(now)
				tn.Net.SetOnline(tn.Nodes[i].ID(), online)
				if online && len(boot) < 4 {
					boot = append(boot, i)
				}
			}
			infos := make([]wire.PeerInfo, 0, len(boot))
			for _, i := range boot {
				infos = append(infos, tn.Nodes[i].Info())
			}
			report := cr.Crawl(ctx, infos)
			res.Epochs = append(res.Epochs, CrawlEpoch{
				Time:       now,
				Total:      len(report.Observations),
				Dialable:   report.Dialable(),
				Undialable: report.Undialable(),
			})
		}
	})
	return res
}

// Fig4a renders the crawl time series.
func (r *DeployResults) Fig4a() string {
	var b strings.Builder
	b.WriteString("Figure 4a: crawled peers over time (total / dialable / undialable)\n")
	for _, e := range r.Epochs {
		b.WriteString(fmt.Sprintf("%s  total=%d dialable=%d undialable=%d\n",
			e.Time.Format("15:04"), e.Total, e.Dialable, e.Undialable))
	}
	return b.String()
}

// Fig5 renders the geographic distribution of peers.
func (r *DeployResults) Fig5() string {
	t := stats.NewTable("Country", "Peers", "Share")
	total := len(r.Pop.Peers)
	for i, e := range ranked(r.Pop.CountryCounts()) {
		if i >= 10 {
			break
		}
		t.AddRow(string(e.key), e.n, fmt.Sprintf("%.1f%%", 100*float64(e.n)/float64(total)))
	}
	return "Figure 5: geographical distribution of peers (top 10)\n" + t.String()
}

// Table2 renders AS concentration.
func (r *DeployResults) Table2() string {
	byAS := make(map[int]int) // rank -> ip count
	ipSeen := make(map[string]bool)
	for _, p := range r.Pop.Peers {
		if ipSeen[p.IP] {
			continue
		}
		ipSeen[p.IP] = true
		byAS[p.AS.Rank]++
	}
	list := ranked(byAS)
	totalIPs := len(ipSeen)
	infos := r.Pop.AS.Infos()
	t := stats.NewTable("Share", "ASN", "Rank", "AS Name")
	cum := 0.0
	for _, e := range list {
		share := float64(e.n) / float64(totalIPs)
		info := infos[e.key-1]
		t.AddRow(fmt.Sprintf("%.1f%%", 100*share), info.ASN, info.Rank, info.Name)
		cum += share
		if cum > 0.5 {
			break
		}
	}
	top10 := 0
	for _, e := range list {
		if e.key <= 10 {
			top10 += e.n
		}
	}
	head := fmt.Sprintf("Table 2: ASes covering >50%% of found IPs (top-10 ASes hold %.1f%%; %s)\n",
		100*float64(top10)/float64(totalIPs), cite("t2.top10"))
	return head + t.String()
}

// Table3 renders cloud-provider share.
func (r *DeployResults) Table3() string {
	byCloud := make(map[string]int)
	cloudTotal := 0
	for _, p := range r.Pop.Peers {
		if p.Cloud != "" {
			byCloud[p.Cloud]++
			cloudTotal++
		}
	}
	t := stats.NewTable("Rank", "Provider", "Peers", "Share")
	for i, e := range ranked(byCloud) {
		t.AddRow(i+1, e.key, e.n, fmt.Sprintf("%.2f%%", 100*float64(e.n)/float64(len(r.Pop.Peers))))
	}
	nonCloud := len(r.Pop.Peers) - cloudTotal
	t.AddRow("-", "Non-Cloud", nonCloud, fmt.Sprintf("%.2f%%", 100*float64(nonCloud)/float64(len(r.Pop.Peers))))
	head := fmt.Sprintf("Table 3: cloud hosting (cloud share %.2f%%; %s)\n",
		100*float64(cloudTotal)/float64(len(r.Pop.Peers)), cite("t3.cloud"))
	return head + t.String()
}

// Fig7a renders reliable peers (>90% uptime) by country. Reliability
// is the population attribute planted at the paper's rate (ledger row
// f7a.reliable, an input): the paper's criterion spans a five-month
// measurement campaign, which a 24 h churn window cannot re-derive
// (ordinary peers with one lucky long session would dominate).
func (r *DeployResults) Fig7a() string {
	counts := make(map[geo.Region]int)
	reliable := 0
	for _, p := range r.Pop.Peers {
		if p.Reliable {
			counts[p.Country]++
			reliable++
		}
	}
	t := rankedCountryTable(counts, len(r.Pop.Peers), "permille")
	head := fmt.Sprintf("Figure 7a: reliable peers by country (%.1f%% overall; %s)\n",
		100*float64(reliable)/float64(len(r.Pop.Peers)), cite("f7a.reliable"))
	return head + t
}

// Fig7b renders never-reachable peers by country.
func (r *DeployResults) Fig7b() string {
	counts := make(map[geo.Region]int)
	unreachable := 0
	for _, p := range r.Pop.Peers {
		if !p.Dialable {
			counts[p.Country]++
			unreachable++
		}
	}
	t := rankedCountryTable(counts, len(r.Pop.Peers), "percent")
	head := fmt.Sprintf("Figure 7b: unreachable peers by country (%.1f%% overall; %s)\n",
		100*float64(unreachable)/float64(len(r.Pop.Peers)), cite("f7b.unreachable"))
	return head + t
}

// count is one entry of a ranked tally.
type count[K cmp.Ordered] struct {
	key K
	n   int
}

// ranked lists a tally largest first, ties by key: map iteration order
// must not reach a render.
func ranked[K cmp.Ordered](tally map[K]int) []count[K] {
	list := make([]count[K], 0, len(tally))
	for k, n := range tally {
		list = append(list, count[K]{k, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].key < list[j].key
	})
	return list
}

func rankedCountryTable(counts map[geo.Region]int, total int, unit string) string {
	t := stats.NewTable("Country", "Peers", "Share")
	for i, e := range ranked(counts) {
		if i >= 9 {
			break
		}
		switch unit {
		case "permille":
			t.AddRow(string(e.key), e.n, fmt.Sprintf("%.2f‰", 1000*float64(e.n)/float64(total)))
		default:
			t.AddRow(string(e.key), e.n, fmt.Sprintf("%.2f%%", 100*float64(e.n)/float64(total)))
		}
	}
	return t.String()
}

// Fig7c renders the PeerID-per-IP CDF.
func (r *DeployResults) Fig7c() string {
	perIP := r.Pop.PeersPerIP()
	var maxN int
	hist := make(map[int]int)
	for _, n := range perIP {
		hist[n]++
		if n > maxN {
			maxN = n
		}
	}
	var b strings.Builder
	b.WriteString("Figure 7c: CDF of PeerIDs per IP address\n")
	cum := 0
	for n := 1; n <= 15 && n <= maxN; n++ {
		cum += hist[n]
		b.WriteString(fmt.Sprintf("%2d  %.4f\n", n, float64(cum)/float64(len(perIP))))
	}
	b.WriteString(fmt.Sprintf("max PeerIDs on one IP: %d\n", maxN))
	return b.String()
}

// Fig7d renders IPs per AS ordered by AS rank.
func (r *DeployResults) Fig7d() string {
	byRank := r.Pop.IPsPerASRank()
	ranks := make([]int, 0, len(byRank))
	for rank := range byRank {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	var b strings.Builder
	b.WriteString("Figure 7d: IP addresses per AS by AS rank (log-log series)\n")
	for _, rank := range ranks {
		if rank <= 10 || rank%100 == 0 {
			b.WriteString(fmt.Sprintf("rank=%d ips=%d\n", rank, byRank[rank]))
		}
	}
	return b.String()
}

// Fig8 renders the per-region session-uptime CDFs.
func (r *DeployResults) Fig8(points int) string {
	regions := []geo.Region{"CN", "US", "DE", "HK", "BR", "TW"}
	samples := make(map[geo.Region]*stats.Sample)
	for _, reg := range regions {
		samples[reg] = stats.NewSample()
	}
	obs := r.Timeline.SessionObservations()
	for _, o := range obs {
		if s, ok := samples[o.Region]; ok {
			s.Add(o.Uptime.Hours())
		}
	}
	var b strings.Builder
	b.WriteString(fmt.Sprintf("Figure 8: churn by region, %d session observations (uptime hours)\n", len(obs)))
	for _, reg := range regions {
		s := samples[reg]
		if s.Len() == 0 {
			continue
		}
		b.WriteString(fmt.Sprintf("# %s median=%.2fh under8h=%.3f over24h=%.3f\n",
			reg, s.Median(), s.FractionBelow(8), 1-s.FractionBelow(24)))
		b.WriteString(stats.FormatCDF(fmt.Sprintf("fig8 [%s]", reg), s.CDF(points)))
	}
	return b.String()
}

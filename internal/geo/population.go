package geo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// ASInfo describes one autonomous system of the model.
type ASInfo struct {
	ASN   int
	Rank  int // CAIDA-style rank: 1 = largest
	Name  string
	Share float64 // fraction of all peer IP addresses
}

// Named top ASes from Table 2 with their published IP shares, plus
// modelled shares for ranks 6–10 chosen so the top 10 hold 64.9 % of
// IPs (§5.2).
var topASes = []ASInfo{
	{4134, 1, "CHINANET-BACKBONE, CN", 0.189},
	{4837, 2, "CHINA169-BACKBONE, CN", 0.128},
	{4760, 3, "HKTIMS-AP HKT Limited, HK", 0.096},
	{26599, 4, "TELEFONICA BRASIL S.A, BR", 0.069},
	{3462, 5, "HINET, TW", 0.053},
	{7922, 6, "COMCAST-7922, US", 0.029},
	{3320, 7, "DTAG, DE", 0.025},
	{4766, 8, "KIXS-AS-KR, KR", 0.022},
	{3215, 9, "FT Orange, FR", 0.020},
	{7018, 10, "ATT-INTERNET4, US", 0.018},
}

// NumASes is the total number of ASes the paper observed peers in.
const NumASes = 2715

// CloudProvider pairs a provider name with its share of all IPs
// (Table 3). The total cloud share is <2.3 %.
type CloudProvider struct {
	Name  string
	Share float64
}

// CloudProviders reproduces Table 3's top providers.
var CloudProviders = []CloudProvider{
	{"Contabo GmbH", 0.0044},
	{"Amazon AWS", 0.0039},
	{"Microsoft Azure", 0.0033},
	{"Digital Ocean", 0.0018},
	{"Hetzner Online", 0.0013},
	{"GZ Systems", 0.0008},
	{"OVH", 0.0007},
	{"Google Cloud", 0.0006},
	{"Tencent Cloud", 0.0006},
	{"Choopa, LLC. Cloud", 0.0005},
	{"Other Cloud Providers", 0.0050},
}

// ASModel holds the fitted AS share distribution.
type ASModel struct {
	infos []ASInfo // sorted by rank
	cum   []float64
}

// NewASModel builds the AS distribution: the named top-10 ASes keep
// their Table 2 shares; the remaining mass follows a Zipf tail with
// exponent 1.5 over ranks 11..2715, which reproduces the paper's
// "top 100 contain 90.6 %" concentration.
func NewASModel() *ASModel {
	m := &ASModel{}
	var used float64
	for _, a := range topASes {
		m.infos = append(m.infos, a)
		used += a.Share
	}
	rest := 1 - used
	var zipfSum float64
	for r := 11; r <= NumASes; r++ {
		zipfSum += math.Pow(float64(r), -1.5)
	}
	for r := 11; r <= NumASes; r++ {
		share := rest * math.Pow(float64(r), -1.5) / zipfSum
		m.infos = append(m.infos, ASInfo{
			ASN:   60000 + r,
			Rank:  r,
			Name:  fmt.Sprintf("AS-RANK-%d", r),
			Share: share,
		})
	}
	m.cum = make([]float64, len(m.infos))
	var c float64
	for i, a := range m.infos {
		c += a.Share
		m.cum[i] = c
	}
	return m
}

// Sample draws an AS according to the share distribution.
func (m *ASModel) Sample(rng *rand.Rand) ASInfo {
	x := rng.Float64() * m.cum[len(m.cum)-1]
	i := sort.SearchFloat64s(m.cum, x)
	if i >= len(m.infos) {
		i = len(m.infos) - 1
	}
	return m.infos[i]
}

// TopShare returns the combined share of the top n ASes.
func (m *ASModel) TopShare(n int) float64 {
	if n > len(m.infos) {
		n = len(m.infos)
	}
	var s float64
	for _, a := range m.infos[:n] {
		s += a.Share
	}
	return s
}

// Infos returns the AS table sorted by rank.
func (m *ASModel) Infos() []ASInfo { return m.infos }

// Peer is one synthetic member of the network population, carrying the
// attributes §5 analyses: geography, AS, cloud tag, dialability and
// reliability class, and the IP it shares with co-hosted peers.
type Peer struct {
	Index    int
	Country  Region
	AS       ASInfo
	Cloud    string // "" when not cloud-hosted (>97.7 % of peers)
	IP       string
	Dialable bool // reachable at least once (54.5 % of IPs)
	Reliable bool // >90 % uptime (1.4 % of peers)
}

// PopulationConfig tunes the synthetic population.
type PopulationConfig struct {
	N               int
	Seed            int64
	FracUnreachable float64 // peers never reachable (paper: ~1/3)
	FracReliable    float64 // peers with >90 % uptime (paper: 1.4 %)
	FracSingletonIP float64 // IPs hosting exactly one PeerID (92.3 %)
	NumSuperHosts   int     // IPs hosting very many PeerIDs (Fig 7c tail)
	SuperHostPeers  int     // peers per super host
}

// DefaultPopulationConfig mirrors the published marginals at the given
// scale.
func DefaultPopulationConfig(n int) PopulationConfig {
	return PopulationConfig{
		N:               n,
		Seed:            1,
		FracUnreachable: 0.331,
		FracReliable:    0.014,
		FracSingletonIP: 0.923,
		NumSuperHosts:   max(1, n/2000),
		SuperHostPeers:  max(20, n/300),
	}
}

// Population is a generated peer population plus its models.
type Population struct {
	Peers []Peer
	AS    *ASModel
}

// sampleCountry draws a country from the share table.
func sampleCountry(rng *rand.Rand, shares []CountryShare) Region {
	x := rng.Float64()
	var c float64
	for _, s := range shares {
		c += s.Share
		if x < c {
			return s.Country
		}
	}
	return shares[len(shares)-1].Country
}

// SampleCountry draws a peer-hosting country (Fig 5 distribution).
func SampleCountry(rng *rand.Rand) Region { return sampleCountry(rng, CountryShares) }

// SampleGatewayUserCountry draws a gateway-user country (Fig 6).
func SampleGatewayUserCountry(rng *rand.Rand) Region {
	return sampleCountry(rng, GatewayUserShares)
}

// GeneratePopulation builds a synthetic peer population with the
// configured marginals.
func GeneratePopulation(cfg PopulationConfig) *Population {
	rng := rand.New(rand.NewSource(cfg.Seed))
	asModel := NewASModel()
	pop := &Population{AS: asModel}

	var cloudCum []float64
	var cloudTotal float64
	for _, p := range CloudProviders {
		cloudTotal += p.Share
		cloudCum = append(cloudCum, cloudTotal)
	}

	ipCounter := 0
	newIP := func(as ASInfo) string {
		ipCounter++
		return fmt.Sprintf("%d.%d.%d.%d", 1+as.Rank%223, (ipCounter>>16)&255, (ipCounter>>8)&255, ipCounter&255)
	}

	i := 0
	// Super hosts first: a handful of IPs each hosting many PeerIDs —
	// the "top 10 IP addresses host almost 66k distinct PeerIDs"
	// concern of §5.1.
	for h := 0; h < cfg.NumSuperHosts && i < cfg.N; h++ {
		country := SampleCountry(rng)
		as := asModel.Sample(rng)
		ip := newIP(as)
		for j := 0; j < cfg.SuperHostPeers && i < cfg.N; j++ {
			pop.Peers = append(pop.Peers, Peer{
				Index: i, Country: country, AS: as, IP: ip,
				Dialable: rng.Float64() > cfg.FracUnreachable,
			})
			i++
		}
	}
	// Remaining peers: mostly singleton IPs, occasionally small shared
	// hosts.
	for i < cfg.N {
		country := SampleCountry(rng)
		as := asModel.Sample(rng)
		cloud := ""
		if x := rng.Float64(); x < cloudTotal {
			idx := sort.SearchFloat64s(cloudCum, x)
			if idx >= len(CloudProviders) {
				idx = len(CloudProviders) - 1
			}
			cloud = CloudProviders[idx].Name
		}
		ip := newIP(as)
		n := 1
		if rng.Float64() > cfg.FracSingletonIP {
			n = 2 + rng.Intn(6) // small multi-peer host
		}
		for j := 0; j < n && i < cfg.N; j++ {
			p := Peer{
				Index: i, Country: country, AS: as, Cloud: cloud, IP: ip,
				Dialable: rng.Float64() > cfg.FracUnreachable,
			}
			if p.Dialable && rng.Float64() < cfg.FracReliable/(1-cfg.FracUnreachable) {
				p.Reliable = true
			}
			pop.Peers = append(pop.Peers, p)
			i++
		}
	}
	return pop
}

// CountryCounts aggregates peers per country.
func (p *Population) CountryCounts() map[Region]int {
	out := make(map[Region]int)
	for _, peer := range p.Peers {
		out[peer.Country]++
	}
	return out
}

// PeersPerIP returns the PeerID count of each distinct IP (Fig 7c).
func (p *Population) PeersPerIP() map[string]int {
	out := make(map[string]int)
	for _, peer := range p.Peers {
		out[peer.IP]++
	}
	return out
}

// IPsPerASRank returns IP counts keyed by AS rank (Fig 7d).
func (p *Population) IPsPerASRank() map[int]int {
	seen := make(map[string]int) // ip -> rank
	for _, peer := range p.Peers {
		seen[peer.IP] = peer.AS.Rank
	}
	out := make(map[int]int)
	for _, rank := range seen {
		out[rank]++
	}
	return out
}

// CloudShare returns the fraction of peers hosted on any cloud
// provider (Table 3's headline: <2.3 %).
func (p *Population) CloudShare() float64 {
	n := 0
	for _, peer := range p.Peers {
		if peer.Cloud != "" {
			n++
		}
	}
	return float64(n) / float64(len(p.Peers))
}

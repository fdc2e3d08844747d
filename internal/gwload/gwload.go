// Package gwload generates synthetic gateway workloads matching the
// §4.2 dataset's published marginals: a diurnal arrival curve (Fig 4b),
// the user-country mix of a US gateway (Fig 6), log-normal object sizes
// with a 664.59 KB median and 79.1 % above 100 KB (Fig 11a), Zipf
// popularity, and the referrer mix of §6.3 (51.8 % third-party
// referred, concentrated on ~72 semi-popular sites).
package gwload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/geo"
)

// Object is one catalog entry.
type Object struct {
	Index  int
	Size   int  // bytes
	Pinned bool // uploaded via the Web3/NFT storage initiatives
}

// Catalog is the content universe requests draw from, rank-ordered by
// popularity (index 0 = most popular).
type Catalog struct {
	Objects []Object
	zipfCum []float64
}

// CatalogConfig tunes catalog generation.
type CatalogConfig struct {
	NumObjects int
	Seed       int64
	// ZipfS is the popularity skew exponent (default 1.05).
	ZipfS float64
	// PinnedFraction is the fraction of objects pinned into the
	// gateway's node store, biased toward popular objects — NFT
	// content is both pinned and hot (§6.3).
	PinnedFraction float64
	// MedianSize and SizeSigma shape the log-normal size distribution
	// (defaults: 664.59 KB median, sigma fitted so 79.1 % > 100 KB).
	MedianSize int
	SizeSigma  float64
	// MaxSize caps object sizes to keep simulations tractable.
	MaxSize int
}

func (c CatalogConfig) withDefaults() CatalogConfig {
	if c.NumObjects <= 0 {
		c.NumObjects = 1000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.05
	}
	if c.PinnedFraction == 0 {
		c.PinnedFraction = 0.72
	}
	if c.MedianSize <= 0 {
		c.MedianSize = 664_590 // 664.59 KB (Fig 11a)
	}
	if c.SizeSigma == 0 {
		// P(size > 100 KB) = 0.791 with median 664.59 KB:
		// z = ln(664.59/100)/sigma = 0.81 => sigma ≈ 2.34.
		c.SizeSigma = 2.34
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 8 << 20
	}
	return c
}

// NewCatalog builds a catalog.
func NewCatalog(cfg CatalogConfig) *Catalog {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cat := &Catalog{}
	for i := 0; i < cfg.NumObjects; i++ {
		size := int(math.Exp(math.Log(float64(cfg.MedianSize)) + cfg.SizeSigma*rng.NormFloat64()))
		if size < 64 {
			size = 64
		}
		if size > cfg.MaxSize {
			size = cfg.MaxSize
		}
		// Pinning is popularity-biased: the probability decays with
		// rank so hot NFT content is mostly pinned while a tail of
		// community content is not.
		rankFrac := float64(i) / float64(cfg.NumObjects)
		pinned := rng.Float64() < cfg.PinnedFraction*(1.1-0.45*rankFrac)
		cat.Objects = append(cat.Objects, Object{Index: i, Size: size, Pinned: pinned})
	}
	cat.zipfCum = make([]float64, cfg.NumObjects)
	var sum float64
	for i := 0; i < cfg.NumObjects; i++ {
		sum += math.Pow(float64(i+1), -cfg.ZipfS)
		cat.zipfCum[i] = sum
	}
	return cat
}

// SampleObject draws an object index by Zipf popularity.
func (c *Catalog) SampleObject(rng *rand.Rand) int {
	x := rng.Float64() * c.zipfCum[len(c.zipfCum)-1]
	i := sort.SearchFloat64s(c.zipfCum, x)
	if i >= len(c.Objects) {
		i = len(c.Objects) - 1
	}
	return i
}

// Request is one generated gateway request.
type Request struct {
	Time     time.Time
	Object   int // catalog index
	Country  geo.Region
	UserID   string
	Referrer string
}

// TraceConfig tunes request-trace generation.
type TraceConfig struct {
	NumRequests int
	NumUsers    int
	Day         time.Time // start of the 24 h window
	Seed        int64
}

const (
	// referredFraction is the share of traffic arriving via third-party
	// websites (§6.3: 51.8 %).
	referredFraction = 0.518
	// numReferrerSites is the size of the semi-popular referrer pool
	// (§6.3: 72 sites carry 70.6 % of referred traffic).
	numReferrerSites = 72
)

func (c TraceConfig) withDefaults() TraceConfig {
	if c.NumRequests <= 0 {
		c.NumRequests = 10000
	}
	if c.NumUsers <= 0 {
		c.NumUsers = c.NumRequests / 70 // §4.2: 101k users / 7.1M requests
		if c.NumUsers < 1 {
			c.NumUsers = 1
		}
	}
	if c.Day.IsZero() {
		c.Day = time.Date(2022, 1, 2, 0, 0, 0, 0, time.UTC)
	}
	return c
}

// diurnalWeight is the arrival intensity by UTC hour for a US-west
// gateway: two broad peaks reflecting the gateway-timezone and
// China-timezone user populations (Fig 4b's two curves).
func diurnalWeight(hour float64) float64 {
	// Peak around 19h UTC (US daytime) and a secondary around 6h UTC
	// (China daytime).
	us := math.Exp(-sq(angularDist(hour, 19)) / (2 * 4.0 * 4.0))
	cn := 0.75 * math.Exp(-sq(angularDist(hour, 6))/(2*3.5*3.5))
	return 0.22 + us + cn
}

func sq(x float64) float64 { return x * x }

// angularDist is the circular distance between hours on a 24 h clock.
func angularDist(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 24)
	if d > 12 {
		d = 24 - d
	}
	return d
}

// GenerateTrace produces a time-ordered request trace over one day.
func GenerateTrace(cat *Catalog, cfg TraceConfig) []Request {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Pre-assign users to countries so one user's requests geolocate
	// consistently (§4.2 aggregates users by IP+agent).
	userCountry := make([]geo.Region, cfg.NumUsers)
	for i := range userCountry {
		userCountry[i] = geo.SampleGatewayUserCountry(rng)
	}

	// Build the hourly intensity CDF.
	var hourCum [24]float64
	var sum float64
	for h := 0; h < 24; h++ {
		sum += diurnalWeight(float64(h))
		hourCum[h] = sum
	}

	reqs := make([]Request, cfg.NumRequests)
	for i := range reqs {
		x := rng.Float64() * sum
		h := sort.SearchFloat64s(hourCum[:], x)
		if h >= 24 {
			h = 23
		}
		ts := cfg.Day.Add(time.Duration(h) * time.Hour).
			Add(time.Duration(rng.Int63n(int64(time.Hour))))
		user := rng.Intn(cfg.NumUsers)
		ref := ""
		if rng.Float64() < referredFraction {
			// 70.6 % of referred traffic comes from the semi-popular
			// pool; the rest from a long random tail.
			if rng.Float64() < 0.706 {
				ref = fmt.Sprintf("https://site-%02d.example", rng.Intn(numReferrerSites))
			} else {
				ref = fmt.Sprintf("https://longtail-%05d.example", rng.Intn(50000))
			}
		}
		reqs[i] = Request{
			Time:     ts,
			Object:   cat.SampleObject(rng),
			Country:  userCountry[user],
			UserID:   fmt.Sprintf("user-%06d", user),
			Referrer: ref,
		}
	}
	sort.Slice(reqs, func(a, b int) bool { return reqs[a].Time.Before(reqs[b].Time) })
	return reqs
}

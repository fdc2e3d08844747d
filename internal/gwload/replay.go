package gwload

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/simtime"
	"repro/internal/stats"
)

// FlashCrowdConfig tunes flash-crowd trace generation: a steady
// Zipf-popularity request stream with a burst window during which one
// viral object arrives at BurstMultiplier times the steady rate — the
// "NFT drop" overload shape the gateway fleet's admission control and
// shared cache tier exist for.
type FlashCrowdConfig struct {
	// Start anchors the trace timestamps (scenario window start).
	Start time.Time
	// Duration is the full trace span (default 30 min).
	Duration time.Duration
	// SteadyRPS is the steady-state arrival rate (default 1/s).
	SteadyRPS float64
	// BurstStart/BurstDuration bound the viral window (defaults: one
	// third into the trace, lasting one third of it).
	BurstStart    time.Duration
	BurstDuration time.Duration
	// BurstMultiplier scales the viral object's arrival rate relative to
	// the whole steady stream (default 100 — the scenario's 100x).
	BurstMultiplier float64
	// ViralObject is the catalog index that goes viral (default: the
	// most popular unpinned object, falling back to index 0).
	ViralObject int
	Seed        int64
}

func (c FlashCrowdConfig) withDefaults() FlashCrowdConfig {
	if c.Duration <= 0 {
		c.Duration = 30 * time.Minute
	}
	if c.SteadyRPS <= 0 {
		c.SteadyRPS = 1
	}
	if c.BurstDuration <= 0 {
		c.BurstDuration = c.Duration / 3
	}
	if c.BurstStart <= 0 {
		c.BurstStart = c.Duration / 3
	}
	if c.BurstMultiplier <= 0 {
		c.BurstMultiplier = 100
	}
	return c
}

// ViralObject picks the flash-crowd target for a catalog: the least
// popular unpinned object — a fresh mint nobody has requested yet, so
// the burst's first request pays a full P2P retrieval with every cache
// tier cold, the way a real NFT drop arrives.
func ViralObject(cat *Catalog) int {
	for i := len(cat.Objects) - 1; i >= 0; i-- {
		if !cat.Objects[i].Pinned {
			return cat.Objects[i].Index
		}
	}
	return len(cat.Objects) - 1
}

// GenerateFlashCrowd produces a time-ordered trace: steady Zipf
// arrivals at SteadyRPS across the whole span, plus the viral object at
// (BurstMultiplier-1) x the steady rate inside the burst window, from
// a wide pool of distinct users (a flash crowd is new users, not one
// user retrying). Arrivals are evenly spaced, keeping event-driven
// replays deterministic.
func GenerateFlashCrowd(cat *Catalog, cfg FlashCrowdConfig) []Request {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The requesting population: enough for one request per user at
	// steady state.
	numUsers := int(cfg.SteadyRPS*cfg.Duration.Seconds()) + 1
	userCountry := make([]geo.Region, numUsers)
	for i := range userCountry {
		userCountry[i] = geo.SampleGatewayUserCountry(rng)
	}

	var reqs []Request
	steadyN := int(cfg.SteadyRPS * cfg.Duration.Seconds())
	for i := 0; i < steadyN; i++ {
		ts := cfg.Start.Add(time.Duration(float64(i) / cfg.SteadyRPS * float64(time.Second)))
		user := rng.Intn(numUsers)
		reqs = append(reqs, Request{
			Time:    ts,
			Object:  cat.SampleObject(rng),
			Country: userCountry[user],
			UserID:  fmt.Sprintf("user-%06d", user),
		})
	}

	burstRate := cfg.SteadyRPS * (cfg.BurstMultiplier - 1)
	burstN := int(burstRate * cfg.BurstDuration.Seconds())
	for i := 0; i < burstN; i++ {
		ts := cfg.Start.Add(cfg.BurstStart).
			Add(time.Duration(float64(i) / burstRate * float64(time.Second)))
		// Flash-crowd users are overwhelmingly new: draw from a 10x wider
		// synthetic pool so the crowd is distinct users, not retries.
		user := numUsers + rng.Intn(10*numUsers)
		reqs = append(reqs, Request{
			Time:    ts,
			Object:  cfg.ViralObject,
			Country: geo.SampleGatewayUserCountry(rng),
			UserID:  fmt.Sprintf("user-%06d", user),
			// The viral path is always referred traffic (§6.3's
			// third-party embeds are how content goes viral).
			Referrer: "https://viral.example",
		})
	}
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Time.Before(reqs[b].Time) })
	return reqs
}

// ReplayStats aggregates one replay: sim-accurate time-to-first-byte
// per completed request plus outcome counts.
type ReplayStats struct {
	mu       sync.Mutex
	ttfb     *stats.Sample
	requests int
	failures int
}

// TTFB returns the sim-accurate time-to-first-byte sample, in seconds.
func (s *ReplayStats) TTFB() *stats.Sample { return s.ttfb }

// Requests returns how many requests the replay dispatched.
func (s *ReplayStats) Requests() int { return s.requests }

// Failures returns how many requests reported an error (including
// shed rejections — the caller's do func decides what is an error).
func (s *ReplayStats) Failures() int { return s.failures }

// Replay dispatches a trace against a target at the trace's own
// arrival instants, on the simulated clock: the caller's goroutine
// sleeps to each request's offset through src, each request runs on a
// src.Go goroutine so arrivals overlap (that concurrency is what
// drives fleet admission control), and TTFB is measured with
// src.Stamp/src.Since — simulated durations, never wall clock, so
// event-driven scenarios report sim-accurate latencies. The do func
// serves one request (a gateway or fleet Fetch) and reports failure.
// Replay returns once every dispatched request completed.
func Replay(ctx context.Context, src simtime.Source, reqs []Request, do func(ctx context.Context, r Request) error) *ReplayStats {
	src = simtime.OrWall(src)
	rs := &ReplayStats{ttfb: stats.NewSample()}
	g := simtime.NewGroup(src)
	for _, r := range reqs {
		if wait := r.Time.Sub(src.Now()); wait > 0 {
			if src.Sleep(ctx, wait) != nil {
				break
			}
		}
		req := r
		rs.requests++
		g.Go(ctx, func(ctx context.Context) {
			t0 := src.Stamp()
			err := do(ctx, req)
			d := src.Since(t0)
			rs.mu.Lock()
			if err != nil {
				// Shed and failed requests are counted, not timed: a
				// fast 503 would drag the TTFB percentiles toward zero.
				rs.failures++
			} else {
				rs.ttfb.Add(d.Seconds())
			}
			rs.mu.Unlock()
		})
	}
	g.Wait(ctx)
	return rs
}

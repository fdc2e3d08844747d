package crawler_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/crawler"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/simtime/simtest"
	"repro/internal/swarm"
	"repro/internal/testnet"
	"repro/internal/wire"
)

func buildCrawler(tn *testnet.Testnet, seed int64) *crawler.Crawler {
	ident := peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
	ep := tn.Net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true})
	sw := swarm.New(ident, ep, tn.Sched)
	return crawler.New(sw, crawler.Config{Workers: 64})
}

func TestCrawlDiscoversWholeNetwork(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 120, Seed: 21,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	c := buildCrawler(tn, 500)
	boot := []wire.PeerInfo{tn.Nodes[0].Info(), tn.Nodes[1].Info()}
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		report := c.Crawl(ctx, boot)

		if len(report.Observations) < 118 {
			t.Errorf("discovered %d of 120 peers", len(report.Observations))
		}
		if report.Dialable() < 115 {
			t.Errorf("dialable = %d, want nearly all in a clean network", report.Dialable())
		}
		if report.Duration <= 0 {
			t.Error("no crawl duration")
		}
	})
}

func TestCrawlClassifiesUndialable(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 100, Seed: 22,
		FracDead: 0.30, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	c := buildCrawler(tn, 501)
	boot := []wire.PeerInfo{tn.Nodes[0].Info()}
	// Find a live bootstrap peer.
	for i, cl := range tn.Classes {
		if cl == simnet.Normal {
			boot = []wire.PeerInfo{tn.Nodes[i].Info()}
			break
		}
	}
	dead := 0
	for _, cl := range tn.Classes {
		if cl == simnet.DeadDial {
			dead++
		}
	}
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		report := c.Crawl(ctx, boot)
		if report.Undialable() == 0 {
			t.Error("no undialable peers recorded despite dead population")
			return
		}
		// All discovered dead peers must be classified undialable; the
		// crawler finds them in k-buckets but cannot connect (Fig 4a).
		got := report.Undialable()
		if got < dead*5/10 {
			t.Errorf("undialable = %d, dead population = %d", got, dead)
		}
		// Observations carry connection durations for dialable peers,
		// and dialable peers return their k-buckets.
		withBuckets, dialableCount := 0, 0
		for _, o := range report.Observations {
			if o.Dialable && o.ConnectDur <= 0 {
				t.Error("dialable observation missing connect duration")
				return
			}
			if o.Dialable {
				dialableCount++
				if o.BucketSize > 0 {
					withBuckets++
				}
			}
		}
		if withBuckets < dialableCount*2/3 {
			t.Errorf("only %d of %d dialable peers returned bucket entries", withBuckets, dialableCount)
		}
	})
}

func TestCrawlFromDeadBootstrapFindsNothing(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 30, Seed: 23,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	c := buildCrawler(tn, 502)
	ghost := peer.MustNewIdentity(rand.New(rand.NewSource(999)))
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		report := c.Crawl(ctx, []wire.PeerInfo{{ID: ghost.ID}})
		if len(report.Observations) != 1 || report.Dialable() != 0 {
			t.Errorf("observations = %d, dialable = %d", len(report.Observations), report.Dialable())
		}
	})
}

func TestRepeatedCrawlsSeeChurn(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 80, Seed: 24,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	c := buildCrawler(tn, 503)
	boot := []wire.PeerInfo{tn.Nodes[0].Info(), tn.Nodes[1].Info()}

	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		r1 := c.Crawl(ctx, boot)
		// Take a third of the network offline.
		for i := 10; i < 35; i++ {
			tn.Net.SetOnline(tn.Nodes[i].ID(), false)
		}
		r2 := c.Crawl(ctx, boot)
		if r2.Dialable() >= r1.Dialable() {
			t.Errorf("dialable should drop after churn: %d -> %d", r1.Dialable(), r2.Dialable())
		}
		// The departed peers are still discovered in k-buckets, just
		// undialable — exactly the Fig 4a undialable fraction.
		if r2.Undialable() <= r1.Undialable() {
			t.Errorf("undialable should rise after churn: %d -> %d", r1.Undialable(), r2.Undialable())
		}
	})
}

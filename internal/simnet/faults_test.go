package simnet

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestLossyLinkDropsRequests runs on virtual time: the loss-detection
// wait is asserted exactly, whatever the host's load.
func TestLossyLinkDropsRequests(t *testing.T) {
	var net *Network
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net = New(Config{Time: s, Seed: 1, Faults: FaultProfile{LossRate: 1}})
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.UsWest1, Dialable: true})
		eb.SetHandler(echoHandler("b"))
		conn, err := ea.Dial(ctx, b.ID, eb.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		start := s.Stamp()
		_, err = conn.Request(ctx, wire.Message{Type: wire.TFindNode})
		if err != transport.ErrMessageDropped {
			t.Errorf("err = %v, want ErrMessageDropped", err)
		}
		// The caller burns the loss-detection timeout waiting.
		if sim := s.Since(start); sim != net.cfg.DropTimeout {
			t.Errorf("drop detection took %v simulated, want exactly DropTimeout (%v)", sim, net.cfg.DropTimeout)
		}
	})
	budget := net.Budget()
	if budget.Dropped != 1 || budget.DroppedCategory(transport.CatLookup) != 1 {
		t.Errorf("dropped = %d (lookup %d), want 1/1", budget.Dropped, budget.DroppedCategory(transport.CatLookup))
	}
	// The drop is a failure mode of a counted request, not extra traffic.
	if budget.Requests != 1 {
		t.Errorf("requests = %d, want 1", budget.Requests)
	}
	if s := budget.String(); !strings.Contains(s, "1 dropped (lookup 1)") {
		t.Errorf("budget render missing drop counter: %s", s)
	}
}

func TestRetriesAreCountedAndBounded(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		cfg := cfgOn(s)
		cfg.Retries = 3
		net := New(cfg)
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.UsWest1, Dialable: true})
		eb.SetHandler(echoHandler("b"))
		net.SetLinkFaults(geo.EuCentral1, geo.UsWest1, FaultProfile{LossRate: 1})

		conn, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err != transport.ErrMessageDropped {
			t.Fatalf("err = %v, want ErrMessageDropped", err)
		}
		budget := net.Budget()
		// 1 original + 3 retransmits all lost: 4 drops, 3 retries, 1 request.
		if budget.Dropped != 4 || budget.Retried != 3 || budget.Requests != 1 {
			t.Errorf("dropped/retried/requests = %d/%d/%d, want 4/3/1", budget.Dropped, budget.Retried, budget.Requests)
		}
		if s := budget.String(); !strings.Contains(s, "3 retried") {
			t.Errorf("budget render missing retry counter: %s", s)
		}
	})
}

func TestLinkFaultOverrideIsPerRegionPair(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b, c := testIdentity(1), testIdentity(2), testIdentity(3)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.UsWest1, Dialable: true})
		ec := net.AddNode(c.ID, NodeOpts{Region: "FR", Dialable: true})
		eb.SetHandler(echoHandler("b"))
		ec.SetHandler(echoHandler("c"))
		net.SetLinkFaults(geo.UsWest1, geo.EuCentral1, FaultProfile{LossRate: 1})

		lossy, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := ea.Dial(ctx, c.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lossy.Request(ctx, wire.Message{Type: wire.TPing}); err != transport.ErrMessageDropped {
			t.Errorf("overridden link err = %v, want ErrMessageDropped", err)
		}
		if _, err := clean.Request(ctx, wire.Message{Type: wire.TPing}); err != nil {
			t.Errorf("clean link err = %v", err)
		}
	})
}

func TestExtraLatencyTaxesRequests(t *testing.T) {
	measure := func(p FaultProfile) (took time.Duration) {
		simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
			cfg := cfgOn(s)
			cfg.Faults = p
			net := New(cfg)
			a, b := testIdentity(1), testIdentity(2)
			ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
			eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
			eb.SetHandler(echoHandler("b"))
			conn, err := ea.Dial(ctx, b.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			start := s.Stamp()
			if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err != nil {
				t.Fatal(err)
			}
			took = s.Since(start)
		})
		return took
	}
	clean := measure(FaultProfile{})
	taxed := measure(FaultProfile{ExtraLatency: 2 * time.Second, Jitter: time.Second})
	if taxed < clean+2*time.Second || taxed >= clean+4*time.Second {
		t.Errorf("faulty link request took %v against %v clean, want the 2s extra latency plus under 1s of jitter (the taxed handshake shifts the request's own draws)", taxed, clean)
	}
}

func TestPartitionCutsAndHealRestores(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b, c := testIdentity(1), testIdentity(2), testIdentity(3)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.UsWest1, Dialable: true})
		ec := net.AddNode(c.ID, NodeOpts{Region: "US", Dialable: true})
		eb.SetHandler(echoHandler("b"))
		ec.SetHandler(echoHandler("c"))

		conn, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}

		net.Partition(geo.UsWest1, "US")
		if got := net.PartitionedRegions(); len(got) != 2 || got[0] != "US" || got[1] != geo.UsWest1 {
			t.Errorf("PartitionedRegions = %v", got)
		}
		// Traffic across the cut fails in both forms: established connections
		// drop in-flight requests, new dials time out.
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err != transport.ErrPartitioned {
			t.Errorf("request across partition err = %v, want ErrPartitioned", err)
		}
		if _, err := ea.Dial(ctx, b.ID, nil); err != transport.ErrPartitioned {
			t.Errorf("dial across partition err = %v, want ErrPartitioned", err)
		}
		// Two peers on the same side keep talking.
		sameSide, err := eb.Dial(ctx, c.ID, nil)
		if err != nil {
			t.Fatalf("dial within partition: %v", err)
		}
		if _, err := sameSide.Request(ctx, wire.Message{Type: wire.TPing}); err != nil {
			t.Errorf("request within partition err = %v", err)
		}
		if net.Budget().Dropped == 0 {
			t.Error("partitioned request not counted as dropped")
		}

		net.Heal()
		if net.PartitionedRegions() != nil {
			t.Error("Heal left regions partitioned")
		}
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err != nil {
			t.Errorf("request after heal err = %v", err)
		}
	})
}

// TestDropVsTimeoutAttribution pins the satellite fix: link-fault drops
// and dead-peer timeouts are different failure modes with different
// errors and different budget counters. Hammered concurrently so -race
// exercises the fault state and the new counters.
func TestDropVsTimeoutAttribution(t *testing.T) {
	s := simtime.NewScheduler(nil, simtime.SchedulerOpts{Workers: 8}) // concurrent dispatch, for -race
	simtest.RunOn(t, s, func(ctx context.Context) {
		cfg := cfgOn(s)
		net := New(cfg)
		a, b, c := testIdentity(1), testIdentity(2), testIdentity(3)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.UsWest1, Dialable: true})
		ec := net.AddNode(c.ID, NodeOpts{Region: "FR", Dialable: true})
		eb.SetHandler(echoHandler("b"))
		ec.SetHandler(echoHandler("c"))
		// b sits behind a fully lossy link; c will vanish mid-connection.
		net.SetLinkFaults(geo.EuCentral1, geo.UsWest1, FaultProfile{LossRate: 1})

		lossyConn, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		deadConn, err := ea.Dial(ctx, c.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		net.SetOnline(c.ID, false)

		const per = 25
		g := simtime.NewGroup(s)
		var mu sync.Mutex
		errs := make(map[error]int)
		record := func(err error) {
			mu.Lock()
			errs[err]++
			mu.Unlock()
		}
		for i := 0; i < per; i++ {
			g.Go(ctx, func(ctx context.Context) {
				_, err := lossyConn.Request(ctx, wire.Message{Type: wire.TFindNode})
				record(err)
			})
			g.Go(ctx, func(ctx context.Context) {
				_, err := deadConn.Request(transport.WithRPCCategory(ctx, transport.CatRefresh), wire.Message{Type: wire.TFindNode})
				record(err)
			})
		}
		g.Wait(ctx)

		if errs[transport.ErrMessageDropped] != per {
			t.Errorf("ErrMessageDropped count = %d, want %d", errs[transport.ErrMessageDropped], per)
		}
		if errs[transport.ErrPeerUnreachable] != per {
			t.Errorf("ErrPeerUnreachable count = %d, want %d", errs[transport.ErrPeerUnreachable], per)
		}
		budget := net.Budget()
		// Only the lossy link's requests are drops; dead-peer timeouts are
		// requests that failed, never fault drops.
		if budget.Dropped != per {
			t.Errorf("budget.Dropped = %d, want %d", budget.Dropped, per)
		}
		if budget.DroppedCategory(transport.CatLookup) != per || budget.DroppedCategory(transport.CatRefresh) != 0 {
			t.Errorf("dropped by category = %v", budget.DroppedByCategory)
		}
		if budget.Requests != 2*per {
			t.Errorf("budget.Requests = %d, want %d", budget.Requests, 2*per)
		}
		// Delta arithmetic covers the new counters too.
		before := net.Budget()
		lossyConn.Request(ctx, wire.Message{Type: wire.TPing})
		d := net.Budget().Sub(before)
		if d.Dropped != 1 || d.DroppedCategory(transport.CatOther) != 1 {
			t.Errorf("drop delta = %+v, want exactly one 'other' drop", d)
		}
	})
}

func TestHashFloatDeterministicUniform(t *testing.T) {
	a, b := testIdentity(1).ID, testIdentity(2).ID
	v := hashFloat(42, a, b, "loss-req", 12345)
	if v != hashFloat(42, a, b, "loss-req", 12345) {
		t.Error("hashFloat not deterministic for identical keys")
	}
	if v == hashFloat(42, a, b, "loss-resp", 12345) {
		t.Error("kind does not separate draws")
	}
	if v == hashFloat(42, a, b, "loss-req", 12346) {
		t.Error("instant does not separate draws")
	}
	var sum float64
	const n = 4000
	for i := 0; i < n; i++ {
		u := hashFloat(42, a, b, "loss-req", int64(i))
		if u < 0 || u >= 1 {
			t.Fatalf("hashFloat out of [0,1): %v", u)
		}
		sum += u
	}
	if mean := sum / n; mean < 0.45 || mean > 0.55 {
		t.Errorf("hashFloat mean = %v, want ~0.5", mean)
	}
}

// TestLossDrawDeterministicUnderScheduler pins that the loss decision
// depends only on (seed, endpoints, kind,
// virtual instant) — two networks with the same seed agree draw for
// draw, which is what makes lossy replays bit-for-bit.
func TestLossDrawDeterministicUnderScheduler(t *testing.T) {
	epoch := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
	build := func() *Network {
		sched := simtime.NewScheduler(simtime.NewClock(epoch), simtime.SchedulerOpts{Workers: 1})
		return New(Config{Time: sched, Seed: 7, Faults: FaultProfile{LossRate: 0.3}})
	}
	n1, n2 := build(), build()
	a, b := testIdentity(1).ID, testIdentity(2).ID
	for i := 0; i < 200; i++ {
		if n1.lossDraw(a, b, "loss-req", 0.3) != n2.lossDraw(a, b, "loss-req", 0.3) {
			t.Fatalf("draw %d diverged between same-seed networks", i)
		}
	}
}

func TestDialableAccessor(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: false})
		if !net.Dialable(a.ID) || net.Dialable(b.ID) {
			t.Error("Dialable accessor disagrees with NodeOpts")
		}
		if net.Dialable(testIdentity(9).ID) {
			t.Error("unknown peer reported dialable")
		}
	})
}

package simnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/transport"
	"repro/internal/wire"
)

// cfgOn is the default simulator configuration over src.
func cfgOn(src simtime.Source) Config {
	return Config{Time: src, Seed: 1}
}

func testIdentity(seed int64) peer.Identity {
	return peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
}

func echoHandler(id string) transport.Handler {
	return func(_ context.Context, from peer.ID, req wire.Message) wire.Message {
		return wire.Message{Type: wire.TAck, ErrMsg: id}
	}
}

func TestDialAndRequest(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a := testIdentity(1)
		b := testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.UsWest1, Dialable: true})
		ea.SetHandler(echoHandler("a"))
		eb.SetHandler(echoHandler("b"))

		conn, err := ea.Dial(ctx, b.ID, eb.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		if conn.RemotePeer() != b.ID {
			t.Error("RemotePeer mismatch")
		}
		resp, err := conn.Request(ctx, wire.Message{Type: wire.TPing})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TAck || resp.ErrMsg != "b" {
			t.Errorf("resp = %+v", resp)
		}
		reqs, dials, failures := net.Stats()
		if reqs != 1 || dials != 1 || failures != 0 {
			t.Errorf("stats = %d/%d/%d", reqs, dials, failures)
		}
	})
}

func TestDialUnknownPeerTimesOut(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a := testIdentity(1)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		ghost := testIdentity(99)
		start := s.Stamp()
		_, err := ea.Dial(ctx, ghost.ID, nil)
		if err != transport.ErrPeerUnreachable {
			t.Errorf("err = %v", err)
		}
		if el := s.Since(start); el != 5*time.Second {
			t.Errorf("dial timeout took %v, want exactly the 5s dial timeout", el)
		}
	})
}

func TestDeadDialClassEatsDialTimeout(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: DeadDial})
		start := s.Stamp()
		_, err := ea.Dial(ctx, b.ID, nil)
		if err != transport.ErrDialTimeout {
			t.Errorf("err = %v, want ErrDialTimeout", err)
		}
		if sim := s.Since(start); sim != 5*time.Second {
			t.Errorf("dead dial took %v, want exactly the 5s dial timeout", sim)
		}
	})
}

func TestWSBrokenClassEatsHandshakeTimeout(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: WSBroken})
		start := s.Stamp()
		_, err := ea.Dial(ctx, b.ID, nil)
		if err != transport.ErrHandshakeTimeout {
			t.Errorf("err = %v, want ErrHandshakeTimeout", err)
		}
		if sim := s.Since(start); sim != 45*time.Second {
			t.Errorf("ws-broken dial took %v, want exactly the 45s handshake timeout", sim)
		}
	})
}

func TestUndialablePeer(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: false})
		if _, err := ea.Dial(ctx, b.ID, nil); err != transport.ErrDialTimeout {
			t.Errorf("NAT'd peer dial err = %v", err)
		}
	})
}

func TestOfflinePeer(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb.SetHandler(echoHandler("b"))
		net.SetOnline(b.ID, false)
		if net.Online(b.ID) {
			t.Error("SetOnline(false) ignored")
		}
		if _, err := ea.Dial(ctx, b.ID, nil); err == nil {
			t.Error("dialing an offline peer should fail")
		}
		net.SetOnline(b.ID, true)
		if _, err := ea.Dial(ctx, b.ID, nil); err != nil {
			t.Errorf("dial after coming back online: %v", err)
		}
	})
}

func TestPeerVanishesMidConnection(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb.SetHandler(echoHandler("b"))
		conn, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		net.SetOnline(b.ID, false)
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err == nil {
			t.Error("request to vanished peer should fail")
		}
	})
}

func TestLatencyReflectsGeography(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(Config{Time: s, Seed: 2})
		frankfurt := testIdentity(1)
		paris := testIdentity(2)
		sydney := testIdentity(3)
		ef := net.AddNode(frankfurt.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		ep := net.AddNode(paris.ID, NodeOpts{Region: "FR", Dialable: true})
		es := net.AddNode(sydney.ID, NodeOpts{Region: geo.ApSoutheast2, Dialable: true})
		ep.SetHandler(echoHandler("p"))
		es.SetHandler(echoHandler("s"))

		measure := func(target peer.ID) time.Duration {
			start := s.Stamp()
			conn, err := ef.Dial(ctx, target, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err != nil {
				t.Fatal(err)
			}
			return s.Since(start)
		}
		near := measure(paris.ID)
		far := measure(sydney.ID)
		if near >= far {
			t.Errorf("Frankfurt->Paris (%v) should be faster than Frankfurt->Sydney (%v)", near, far)
		}
	})
}

func TestSlowClassDelaysRequests(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: Slow})
		eb.SetHandler(echoHandler("b"))
		conn, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := s.Stamp()
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err != nil {
			t.Fatal(err)
		}
		sim := s.Since(start)
		if sim < 2*time.Second {
			t.Errorf("slow peer request took %v simulated, want >= 2s", sim)
		}
	})
}

func TestContextCancellation(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(Config{Time: s, Seed: 3})
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: DeadDial})
		ctx, cancel := s.WithTimeout(ctx, time.Second)
		defer cancel()
		start := s.Stamp()
		if _, err := ea.Dial(ctx, b.ID, nil); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want the caller's deadline", err)
		}
		if el := s.Since(start); el != time.Second {
			t.Errorf("the cancelled dial returned after %v, want the caller's 1s, not the 5s dial timeout", el)
		}
	})
}

func TestClosedEndpoint(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb.SetHandler(echoHandler("b"))
		conn, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
		if _, err := conn.Request(ctx, wire.Message{}); err != transport.ErrClosed {
			t.Errorf("request on closed conn: %v", err)
		}
		ea.Close()
		if _, err := ea.Dial(ctx, b.ID, nil); err != transport.ErrClosed {
			t.Errorf("dial from closed endpoint: %v", err)
		}
	})
}

func TestBandwidthAffectsBlockTransfer(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		cfg := cfgOn(s)
		cfg.MeanBandwidth = 1 << 20 // 1 MiB/s mean
		net := New(cfg)
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, BandwidthBps: 1 << 20})
		big := make([]byte, 1<<20)
		eb.SetHandler(func(_ context.Context, _ peer.ID, req wire.Message) wire.Message {
			if req.Type == wire.TWantBlock {
				return wire.Message{Type: wire.TBlock, BlockData: big}
			}
			return wire.Message{Type: wire.TAck}
		})
		conn, err := ea.Dial(ctx, b.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		start := s.Stamp()
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TAck}); err != nil {
			t.Fatal(err)
		}
		small := s.Since(start)
		start = s.Stamp()
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TWantBlock}); err != nil {
			t.Fatal(err)
		}
		blockDur := s.Since(start)
		// 1 MiB at 1 MiB/s should add roughly a simulated second.
		if blockDur < small+500*time.Millisecond {
			t.Errorf("block transfer %v not slower than control %v", blockDur, small)
		}
	})
}

// TestBudgetCategoriesSumUnderConcurrentLoad hammers one connection
// pair from many goroutines with a mix of tagged and untagged requests,
// in the order each of a range of schedule seeds picks, and asserts the
// per-category budget counters always sum to the legacy requests total.
func TestBudgetCategoriesSumUnderConcurrentLoad(t *testing.T) {
	for sched := int64(1); sched <= 8; sched++ {
		t.Run(fmt.Sprintf("schedule=%d", sched), func(t *testing.T) { budgetCategoriesSum(t, sched) })
	}
}

func budgetCategoriesSum(t *testing.T, sched int64) {
	s := simtime.NewScheduler(nil, simtime.SchedulerOpts{})
	simtest.PerturbOn(t, s, sched)
	simtest.RunOn(t, s, func(ctx context.Context) {
		net := New(cfgOn(s))
		a, b := testIdentity(1), testIdentity(2)
		ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
		ea.SetHandler(echoHandler("a"))
		eb.SetHandler(echoHandler("b"))

		conn, err := ea.Dial(ctx, b.ID, eb.Addrs())
		if err != nil {
			t.Fatal(err)
		}
		kinds := []struct {
			ctx context.Context
			typ wire.Type
			cat transport.RPCCategory
		}{
			{ctx, wire.TWantHave, transport.CatWant},
			{ctx, wire.TWantBlock, transport.CatWant},
			{ctx, wire.TFindNode, transport.CatLookup},
			{ctx, wire.TGetProviders, transport.CatLookup},
			{ctx, wire.TAddProvider, transport.CatPublish},
			{ctx, wire.TCrawl, transport.CatRefresh},
			{ctx, wire.TIdentify, transport.CatOther},
			// Explicit tags override the message-type default.
			{transport.WithRPCCategory(ctx, transport.CatRepublish), wire.TAddProvider, transport.CatRepublish},
			{transport.WithRPCCategory(ctx, transport.CatRefresh), wire.TFindNode, transport.CatRefresh},
		}
		const perKind = 40
		g := simtime.NewGroup(s)
		for _, k := range kinds {
			for i := 0; i < perKind; i++ {
				g.Go(k.ctx, func(ctx context.Context) {
					conn.Request(ctx, wire.Message{Type: k.typ})
				})
			}
		}
		g.Wait(ctx)

		budget := net.Budget()
		reqs, _, _ := net.Stats()
		if budget.Requests != int64(len(kinds)*perKind) {
			t.Fatalf("budget.Requests = %d, want %d", budget.Requests, len(kinds)*perKind)
		}
		if budget.Requests != reqs {
			t.Fatalf("budget total %d != legacy stats total %d", budget.Requests, reqs)
		}
		var sum int64
		for _, v := range budget.ByCategory {
			sum += v
		}
		if sum != budget.Requests {
			t.Fatalf("category sum %d != requests %d", sum, budget.Requests)
		}
		want := map[transport.RPCCategory]int64{
			transport.CatWant:      2 * perKind,
			transport.CatLookup:    2 * perKind,
			transport.CatPublish:   perKind,
			transport.CatRefresh:   2 * perKind,
			transport.CatOther:     perKind,
			transport.CatRepublish: perKind,
		}
		for cat, n := range want {
			if got := budget.Category(cat); got != n {
				t.Errorf("category %s = %d, want %d", cat, got, n)
			}
		}
		// Delta arithmetic: spending one more tagged request moves exactly
		// one counter.
		before := net.Budget()
		conn.Request(transport.WithRPCCategory(ctx, transport.CatRepublish), wire.Message{Type: wire.TPing})
		d := net.Budget().Sub(before)
		if d.Requests != 1 || d.Category(transport.CatRepublish) != 1 || len(d.ByCategory) != 1 {
			t.Errorf("delta = %+v, want exactly one republish request", d)
		}
		if s := net.Budget().String(); !strings.Contains(s, "republish") || !strings.Contains(s, "requests") {
			t.Errorf("budget render missing fields: %s", s)
		}
	})
}

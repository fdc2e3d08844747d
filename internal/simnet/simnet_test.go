package simnet

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// fastCfg compresses time 1000x so simulated 5s timeouts take 5ms.
func fastCfg() Config {
	return Config{Time: simtime.Scaled(0.001, nil), Seed: 1}
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
	net := New(fastCfg())
	a := testIdentity(1)
	b := testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb := net.AddNode(b.ID, NodeOpts{Region: geo.UsWest1, Dialable: true})
	ea.SetHandler(echoHandler("a"))
	eb.SetHandler(echoHandler("b"))

	conn, err := ea.Dial(context.Background(), b.ID, eb.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	if conn.RemotePeer() != b.ID {
		t.Error("RemotePeer mismatch")
	}
	resp, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing})
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
}

func TestDialUnknownPeerTimesOut(t *testing.T) {
	net := New(fastCfg())
	a := testIdentity(1)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	ghost := testIdentity(99)
	start := time.Now()
	_, err := ea.Dial(context.Background(), ghost.ID, nil)
	if err != transport.ErrPeerUnreachable {
		t.Errorf("err = %v", err)
	}
	// 5 simulated seconds at scale 0.001 = 5ms real.
	if el := time.Since(start); el < 3*time.Millisecond || el > 500*time.Millisecond {
		t.Errorf("dial timeout took %v real", el)
	}
}

func TestDeadDialClassEatsDialTimeout(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: DeadDial})
	start := time.Now()
	_, err := ea.Dial(context.Background(), b.ID, nil)
	if err != transport.ErrDialTimeout {
		t.Errorf("err = %v, want ErrDialTimeout", err)
	}
	sim := net.Time().Since(start)
	if sim < 4*time.Second || sim > 8*time.Second {
		t.Errorf("dead dial took %v simulated, want ~5s", sim)
	}
}

func TestWSBrokenClassEatsHandshakeTimeout(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: WSBroken})
	start := time.Now()
	_, err := ea.Dial(context.Background(), b.ID, nil)
	if err != transport.ErrHandshakeTimeout {
		t.Errorf("err = %v, want ErrHandshakeTimeout", err)
	}
	sim := net.Time().Since(start)
	if sim < 40*time.Second || sim > 55*time.Second {
		t.Errorf("ws-broken dial took %v simulated, want ~45s", sim)
	}
}

func TestUndialablePeer(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: false})
	if _, err := ea.Dial(context.Background(), b.ID, nil); err != transport.ErrDialTimeout {
		t.Errorf("NAT'd peer dial err = %v", err)
	}
}

func TestOfflinePeer(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb.SetHandler(echoHandler("b"))
	net.SetOnline(b.ID, false)
	if net.Online(b.ID) {
		t.Error("SetOnline(false) ignored")
	}
	if _, err := ea.Dial(context.Background(), b.ID, nil); err == nil {
		t.Error("dialing an offline peer should fail")
	}
	net.SetOnline(b.ID, true)
	if _, err := ea.Dial(context.Background(), b.ID, nil); err != nil {
		t.Errorf("dial after coming back online: %v", err)
	}
}

func TestPeerVanishesMidConnection(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb.SetHandler(echoHandler("b"))
	conn, err := ea.Dial(context.Background(), b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	net.SetOnline(b.ID, false)
	if _, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing}); err == nil {
		t.Error("request to vanished peer should fail")
	}
}

func TestLatencyReflectsGeography(t *testing.T) {
	net := New(Config{Time: simtime.Scaled(0.01, nil), Seed: 2})
	frankfurt := testIdentity(1)
	paris := testIdentity(2)
	sydney := testIdentity(3)
	ef := net.AddNode(frankfurt.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	ep := net.AddNode(paris.ID, NodeOpts{Region: "FR", Dialable: true})
	es := net.AddNode(sydney.ID, NodeOpts{Region: geo.ApSoutheast2, Dialable: true})
	ep.SetHandler(echoHandler("p"))
	es.SetHandler(echoHandler("s"))

	ctx := context.Background()
	measure := func(target peer.ID) time.Duration {
		start := time.Now()
		conn, err := ef.Dial(ctx, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Request(ctx, wire.Message{Type: wire.TPing}); err != nil {
			t.Fatal(err)
		}
		_ = ef
		return net.Time().Since(start)
	}
	near := measure(paris.ID)
	far := measure(sydney.ID)
	if near >= far {
		t.Errorf("Frankfurt->Paris (%v) should be faster than Frankfurt->Sydney (%v)", near, far)
	}
}

func TestSlowClassDelaysRequests(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: Slow})
	eb.SetHandler(echoHandler("b"))
	conn, err := ea.Dial(context.Background(), b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := conn.Request(context.Background(), wire.Message{Type: wire.TPing}); err != nil {
		t.Fatal(err)
	}
	sim := net.Time().Since(start)
	if sim < 2*time.Second {
		t.Errorf("slow peer request took %v simulated, want >= 2s", sim)
	}
}

func TestContextCancellation(t *testing.T) {
	net := New(Config{Time: simtime.Scaled(0.05, nil), Seed: 3})
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true, Class: DeadDial})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := ea.Dial(ctx, b.ID, nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Error("context cancellation did not cut the dial short")
	}
}

func TestClosedEndpoint(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb.SetHandler(echoHandler("b"))
	conn, err := ea.Dial(context.Background(), b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Request(context.Background(), wire.Message{}); err != transport.ErrClosed {
		t.Errorf("request on closed conn: %v", err)
	}
	ea.Close()
	if _, err := ea.Dial(context.Background(), b.ID, nil); err != transport.ErrClosed {
		t.Errorf("dial from closed endpoint: %v", err)
	}
}

func TestBandwidthAffectsBlockTransfer(t *testing.T) {
	cfg := fastCfg()
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
	conn, err := ea.Dial(context.Background(), b.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	if _, err := conn.Request(ctx, wire.Message{Type: wire.TAck}); err != nil {
		t.Fatal(err)
	}
	small := net.Time().Since(start)
	start = time.Now()
	if _, err := conn.Request(ctx, wire.Message{Type: wire.TWantBlock}); err != nil {
		t.Fatal(err)
	}
	blockDur := net.Time().Since(start)
	// 1 MiB at 1 MiB/s should add roughly a simulated second.
	if blockDur < small+500*time.Millisecond {
		t.Errorf("block transfer %v not slower than control %v", blockDur, small)
	}
}

// TestBudgetCategoriesSumUnderConcurrentLoad hammers one connection
// pair from many goroutines with a mix of tagged and untagged requests
// and asserts the per-category budget counters always sum to the
// legacy requests total (run under -race in CI).
func TestBudgetCategoriesSumUnderConcurrentLoad(t *testing.T) {
	net := New(fastCfg())
	a, b := testIdentity(1), testIdentity(2)
	ea := net.AddNode(a.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	eb := net.AddNode(b.ID, NodeOpts{Region: geo.EuCentral1, Dialable: true})
	ea.SetHandler(echoHandler("a"))
	eb.SetHandler(echoHandler("b"))

	conn, err := ea.Dial(context.Background(), b.ID, eb.Addrs())
	if err != nil {
		t.Fatal(err)
	}
	kinds := []struct {
		ctx context.Context
		typ wire.Type
		cat transport.RPCCategory
	}{
		{context.Background(), wire.TWantHave, transport.CatWant},
		{context.Background(), wire.TWantBlock, transport.CatWant},
		{context.Background(), wire.TFindNode, transport.CatLookup},
		{context.Background(), wire.TGetProviders, transport.CatLookup},
		{context.Background(), wire.TAddProvider, transport.CatPublish},
		{context.Background(), wire.TCrawl, transport.CatRefresh},
		{context.Background(), wire.TIdentify, transport.CatOther},
		// Explicit tags override the message-type default.
		{transport.WithRPCCategory(context.Background(), transport.CatRepublish), wire.TAddProvider, transport.CatRepublish},
		{transport.WithRPCCategory(context.Background(), transport.CatRefresh), wire.TFindNode, transport.CatRefresh},
	}
	const perKind = 40
	var wg sync.WaitGroup
	for _, k := range kinds {
		for i := 0; i < perKind; i++ {
			k := k
			wg.Add(1)
			go func() {
				defer wg.Done()
				conn.Request(k.ctx, wire.Message{Type: k.typ})
			}()
		}
	}
	wg.Wait()

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
	conn.Request(transport.WithRPCCategory(context.Background(), transport.CatRepublish), wire.Message{Type: wire.TPing})
	d := net.Budget().Sub(before)
	if d.Requests != 1 || d.Category(transport.CatRepublish) != 1 || len(d.ByCategory) != 1 {
		t.Errorf("delta = %+v, want exactly one republish request", d)
	}
	if s := net.Budget().String(); !strings.Contains(s, "republish") || !strings.Contains(s, "requests") {
		t.Errorf("budget render missing fields: %s", s)
	}
}

package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/simtime/simtest"
	"repro/internal/testnet"
)

var day = time.Date(2022, 1, 2, 0, 0, 0, 0, time.UTC)

// buildGateway returns a gateway whose node sits in a small clean
// testnet, plus a publisher node holding network-only content.
func buildGateway(t *testing.T, cacheBytes int64) (*Gateway, *testnet.Testnet) {
	t.Helper()
	tn := testnet.Build(testnet.Config{
		N: 30, Seed: 31,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	gwNode := tn.AddVantage("US", 777)
	return New(gwNode, cacheBytes, tn.Sched), tn
}

func TestFetchFromNodeStoreThenNginx(t *testing.T) {
	g, tn := buildGateway(t, 1<<20)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		data := bytes.Repeat([]byte("pinned nft "), 500)
		root, err := g.Pin(data)
		if err != nil {
			t.Fatal(err)
		}

		// First hit: node store (pinned content), ~8ms latency.
		r1 := g.Fetch(ctx, Request{Cid: root, Time: day, Country: "US", UserID: "u1"})
		if r1.Tier != TierNodeStore || r1.Err != nil {
			t.Fatalf("first fetch = %+v", r1)
		}
		if r1.Latency != NodeStoreLatency {
			t.Errorf("node store latency = %v", r1.Latency)
		}
		if r1.Bytes != len(data) {
			t.Errorf("bytes = %d", r1.Bytes)
		}

		// Second hit: nginx cache with zero delay (§6.3).
		r2 := g.Fetch(ctx, Request{Cid: root, Time: day.Add(time.Minute), Country: "US", UserID: "u2"})
		if r2.Tier != TierNginx || r2.Latency != 0 {
			t.Errorf("second fetch = %+v", r2)
		}
	})
}

func TestFetchFromNetwork(t *testing.T) {
	g, tn := buildGateway(t, 1<<20)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher := tn.Nodes[0]
		data := bytes.Repeat([]byte{0x5A}, 32*1024)
		pub, err := publisher.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		publisher.PublishPeerRecord(ctx)

		r := g.Fetch(ctx, Request{Cid: pub.Cid, Time: day, Country: "CN", UserID: "u3"})
		if r.Tier != TierNetwork || r.Err != nil {
			t.Fatalf("network fetch = %+v", r)
		}
		if r.Latency < 500*time.Millisecond {
			t.Errorf("network latency = %v, suspiciously fast", r.Latency)
		}
		// Now cached: next request is an nginx hit.
		r2 := g.Fetch(ctx, Request{Cid: pub.Cid, Time: day, Country: "CN", UserID: "u4"})
		if r2.Tier != TierNginx {
			t.Errorf("second fetch tier = %v", r2.Tier)
		}
	})
}

// TestNetworkTierServesObjectLargerThanNodeStore: the network tier
// answers a path-less miss with the object the retrieval assembled. It
// used to throw that away and assemble again from the node store, which
// fails when the store is an LRU smaller than the object — the first
// blocks are gone before the second walk starts.
func TestNetworkTierServesObjectLargerThanNodeStore(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 30, Seed: 31,
		FracDead: 0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		store := block.NewLRUStore(600 << 10)
		g := New(tn.AddVantageStore("US", 777, store), 4<<20, tn.Sched)
		data := make([]byte, 1<<20) // five distinct blocks at the default 256 KiB chunk
		rand.New(rand.NewSource(6)).Read(data)
		publisher := tn.Nodes[0]
		pub, err := publisher.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		publisher.PublishPeerRecord(ctx)

		r, body := g.FetchData(ctx, Request{Cid: pub.Cid, Time: day, Country: "US", UserID: "u6"})
		if r.Tier != TierNetwork || r.Err != nil {
			t.Fatalf("network fetch = %+v", r)
		}
		if !bytes.Equal(body, data) {
			t.Errorf("network tier returned %d bytes that differ from the %d published", len(body), len(data))
		}
		if _, err := merkledag.Assemble(store, pub.Cid); err == nil {
			t.Fatal("the node store still holds the whole object: the test no longer covers the evicted case")
		}
	})
}

func TestFetchMissingContent(t *testing.T) {
	g, tn := buildGateway(t, 1<<20)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		missing := cid.Sum(multicodec.Raw, []byte("404"))
		ctx, cancel := tn.Sched.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		r := g.Fetch(ctx, Request{Cid: missing, Time: day, UserID: "u5"})
		if r.Err == nil {
			t.Error("missing content should error")
		}
		log := g.Log()
		if len(log) != 1 || !log[0].Err() {
			t.Errorf("log = %+v", log)
		}
	})
}

// TestZeroByteNetworkFetchIsSummarized: an empty object served from
// the network is a served request, not a failure — the log entry
// records the fetch's error, not a guess from its size and tier.
func TestZeroByteNetworkFetchIsSummarized(t *testing.T) {
	g, tn := buildGateway(t, 1<<20)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher := tn.Nodes[0]
		pub, err := publisher.AddAndPublish(ctx, []byte{})
		if err != nil {
			t.Fatal(err)
		}
		publisher.PublishPeerRecord(ctx)

		r := g.Fetch(ctx, Request{Cid: pub.Cid, Time: day, UserID: "u7"})
		if r.Tier != TierNetwork || r.Bytes != 0 || r.Err != nil {
			t.Fatalf("empty-object fetch = %+v, want a network hit of 0 bytes", r)
		}
		missing := cid.Sum(multicodec.Raw, []byte("404"))
		mctx, cancel := tn.Sched.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if r := g.Fetch(mctx, Request{Cid: missing, Time: day, UserID: "u8"}); r.Err == nil {
			t.Fatal("missing content should error")
		}

		log := g.Log()
		if len(log) != 2 || log[0].Err() || !log[1].Err() {
			t.Fatalf("log = %+v, want the empty fetch served and the missing one failed", log)
		}
		sum := Summarize(log)
		if got := sum[TierNetwork]; got.Requests != 1 || got.Bytes != 0 {
			t.Errorf("network tier = %+v, want 1 request of 0 bytes", got)
		}
		if len(sum) != 1 {
			t.Errorf("summary = %+v, want only the network tier", sum)
		}
	})
}

func TestCacheEviction(t *testing.T) {
	g, tn := buildGateway(t, 40*1024) // small nginx cache
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		a := bytes.Repeat([]byte{1}, 30*1024)
		b := bytes.Repeat([]byte{2}, 30*1024)
		ra, err := g.Pin(a)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := g.Pin(b)
		if err != nil {
			t.Fatal(err)
		}
		g.Fetch(ctx, Request{Cid: ra, Time: day})
		g.Fetch(ctx, Request{Cid: rb, Time: day}) // evicts a from nginx
		r := g.Fetch(ctx, Request{Cid: ra, Time: day})
		if r.Tier != TierNodeStore {
			t.Errorf("evicted object should come from the node store, got %v", r.Tier)
		}
	})
}

func TestSummarize(t *testing.T) {
	g, tn := buildGateway(t, 1<<20)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		root, err := g.Pin([]byte("summary content"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			g.Fetch(ctx, Request{Cid: root, Time: day})
		}
		stats := Summarize(g.Log())
		if stats[TierNodeStore].Requests != 1 || stats[TierNginx].Requests != 4 {
			t.Errorf("stats = %+v", stats)
		}
		if stats[TierNginx].MedianLatency != 0 {
			t.Error("nginx median latency should be 0")
		}
		if stats[TierNodeStore].MedianLatency != NodeStoreLatency {
			t.Error("node store median latency should be 8ms")
		}
		if stats[TierNginx].Bytes != 4*int64(len("summary content")) {
			t.Errorf("nginx bytes = %d", stats[TierNginx].Bytes)
		}
	})
}

func TestServeHTTP(t *testing.T) {
	g, _ := buildGateway(t, 1<<20)
	data := []byte("hello over http")
	root, err := g.Pin(data)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/ipfs/" + root.String())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(body, data) {
		t.Error("body mismatch")
	}

	// Error paths.
	if r, _ := http.Get(srv.URL + "/ipfs/not-a-cid"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad cid status = %d", r.StatusCode)
	}
	if r, _ := http.Get(srv.URL + "/other"); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad path status = %d", r.StatusCode)
	}
	if r, _ := http.Post(srv.URL+"/ipfs/x", "", nil); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", r.StatusCode)
	}
}

// TestServeHTTPDeclaresLength: an object over net/http's 2 KiB buffer
// goes out with its Content-Length, not chunked, so the client sees EOF
// with the last byte instead of waiting for a terminating chunk. A
// failed fetch still answers a plain 404 without a tier header.
func TestServeHTTPDeclaresLength(t *testing.T) {
	g, _ := buildGateway(t, 1<<20)
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(64)).Read(data)
	root, err := g.Pin(data)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/ipfs/" + root.String())
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("status %d, %d bytes back of %d", resp.StatusCode, len(body), len(data))
	}
	if resp.ContentLength != 65536 || len(resp.TransferEncoding) != 0 {
		t.Errorf("ContentLength = %d, TransferEncoding = %v; want 65536 and none", resp.ContentLength, resp.TransferEncoding)
	}

	rec := httptest.NewRecorder()
	WriteResponse(rec, Response{Err: errors.New("no providers")}, nil)
	if rec.Code != http.StatusNotFound || rec.Body.String() != "not found: no providers\n" ||
		rec.Header().Get("X-Ipfs-Gateway-Tier") != "" || rec.Header().Get("Content-Type") != "text/plain; charset=utf-8" {
		t.Errorf("404 path: status %d, body %q, headers %v", rec.Code, rec.Body.String(), rec.Header())
	}
}

// TestServeHTTPRefusesOverlongCID: a request line near net/http's
// 1 MiB header limit is answered 400 from its length alone; decoding
// it as base58 would cost on the order of a CPU-minute.
func TestServeHTTPRefusesOverlongCID(t *testing.T) {
	g, _ := buildGateway(t, 1<<20)
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/ipfs/z"+strings.Repeat("2", 1<<20), nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400", rec.Code)
	}
}

func TestServeHTTPWithPath(t *testing.T) {
	g, tn := buildGateway(t, 1<<20)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		node := g.Node()
		root, err := node.AddTree(map[string][]byte{
			"index.html":   []byte("<h1>gateway site</h1>"),
			"img/logo.png": bytes.Repeat([]byte{0x89}, 512),
		})
		if err != nil {
			t.Fatal(err)
		}
		node.Pinner().Pin(root)
		srv := httptest.NewServer(g)
		defer srv.Close()

		resp, err := http.Get(srv.URL + "/ipfs/" + root.String() + "/index.html")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "<h1>gateway site</h1>" {
			t.Errorf("status=%d body=%q", resp.StatusCode, body)
		}
		// Nested path.
		resp, err = http.Get(srv.URL + "/ipfs/" + root.String() + "/img/logo.png")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if len(body) != 512 {
			t.Errorf("logo bytes = %d", len(body))
		}
		// Missing path -> 404.
		resp, _ = http.Get(srv.URL + "/ipfs/" + root.String() + "/nope.txt")
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("missing path status = %d", resp.StatusCode)
		}
		// Path requests are cached separately per (cid, path).
		r2 := g.Fetch(ctx, Request{Cid: root, Path: "index.html", Time: day})
		if r2.Tier != TierNginx {
			t.Errorf("second path fetch tier = %v, want nginx", r2.Tier)
		}
	})
}

// fakeTier is a scripted cascade stage that records what it was asked
// and offered.
type fakeTier struct {
	tier Tier
	data []byte // non-nil: answer with it
	err  error  // otherwise: return this (ErrMiss passes the request on)
	gets int
	puts [][]byte
}

func (f *fakeTier) Tier() Tier { return f.tier }

func (f *fakeTier) Get(context.Context, Request) ([]byte, time.Duration, error) {
	f.gets++
	if f.data != nil {
		return f.data, time.Duration(f.tier+1) * time.Millisecond, nil
	}
	return nil, time.Second, f.err
}

func (f *fakeTier) Put(_ Request, data []byte) { f.puts = append(f.puts, data) }

// TestCascadeOrder pins the walk itself, on the fleet's five-stage
// shape (local, local, shared, negative, origin): tiers are asked in
// order and only until one answers; a hit at tier i fills exactly the
// tiers above it; a terminal error ends the walk and fills nothing; and
// every request leaves exactly one log entry naming the answering tier.
func TestCascadeOrder(t *testing.T) {
	object := []byte("object")
	errGone := errors.New("known missing")
	shape := []Tier{TierNginx, TierNodeStore, TierShared, TierNetwork, TierNetwork}
	for answering := range shape {
		for _, fail := range []bool{false, true} {
			tiers := make([]*fakeTier, len(shape))
			g := &Gateway{}
			for i, tier := range shape {
				tiers[i] = &fakeTier{tier: tier, err: ErrMiss}
				g.tiers = append(g.tiers, tiers[i])
			}
			if fail {
				tiers[answering].err = errGone
			} else {
				tiers[answering].data = object
			}

			resp, data := g.FetchData(context.Background(), Request{Time: day, UserID: "u"})

			if resp.Tier != shape[answering] {
				t.Errorf("tier %d answers (fail=%v): Response.Tier = %v, want %v", answering, fail, resp.Tier, shape[answering])
			}
			if fail {
				if !errors.Is(resp.Err, errGone) || data != nil || resp.Bytes != 0 {
					t.Errorf("tier %d fails: resp = %+v, data = %q; want the tier's error and no data", answering, resp, data)
				}
			} else if resp.Err != nil || !bytes.Equal(data, object) || resp.Bytes != len(object) ||
				resp.Latency != time.Duration(shape[answering]+1)*time.Millisecond {
				t.Errorf("tier %d hits: resp = %+v, data = %q", answering, resp, data)
			}
			for i, ft := range tiers {
				wantGets, wantPuts := 0, 0
				if i <= answering {
					wantGets = 1
				}
				if i < answering && !fail {
					wantPuts = 1
				}
				if ft.gets != wantGets || len(ft.puts) != wantPuts {
					t.Errorf("tier %d answers (fail=%v): tier %d asked %d times and offered %d objects, want %d and %d",
						answering, fail, i, ft.gets, len(ft.puts), wantGets, wantPuts)
				}
				if wantPuts == 1 && len(ft.puts) == 1 && !bytes.Equal(ft.puts[0], object) {
					t.Errorf("tier %d was offered %q, want the object", i, ft.puts[0])
				}
			}
			log := g.Log()
			if len(log) != 1 || log[0].Tier != shape[answering] || log[0].Bytes != resp.Bytes || log[0].UserID != "u" {
				t.Errorf("tier %d answers (fail=%v): log = %+v, want one entry for the answering tier", answering, fail, log)
			}
		}
	}
}

// TestLogIsBoundedRing drives more requests through a gateway than the
// access log holds: the log keeps exactly the newest logCap entries,
// oldest first.
func TestLogIsBoundedRing(t *testing.T) {
	g := &Gateway{tiers: []CacheTier{&fakeTier{tier: TierNginx, data: []byte("x")}}}
	ctx := context.Background()
	const extra = 10
	for i := 0; i < logCap+extra; i++ {
		g.FetchData(ctx, Request{Time: day.Add(time.Duration(i) * time.Second)})
	}
	log := g.Log()
	if len(log) != logCap {
		t.Fatalf("len(Log()) = %d after %d requests, want %d", len(log), logCap+extra, logCap)
	}
	for i, e := range log {
		if want := day.Add(time.Duration(i+extra) * time.Second); !e.Time.Equal(want) {
			t.Fatalf("Log()[%d].Time = %v, want %v (the first %d requests dropped, order kept)", i, e.Time, want, extra)
		}
	}
}

package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/simtime/simtest"
	"repro/internal/testnet"
	"repro/internal/transport"
	"repro/internal/unixfs"
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
		r1, _ := g.Fetch(ctx, Request{Cid: root, Time: day, Country: "US", UserID: "u1"})
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
		r2, _ := g.Fetch(ctx, Request{Cid: root, Time: day.Add(time.Minute), Country: "US", UserID: "u2"})
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

		r, _ := g.Fetch(ctx, Request{Cid: pub.Cid, Time: day, Country: "CN", UserID: "u3"})
		if r.Tier != TierNetwork || r.Err != nil {
			t.Fatalf("network fetch = %+v", r)
		}
		if r.Latency < 500*time.Millisecond {
			t.Errorf("network latency = %v, suspiciously fast", r.Latency)
		}
		// Now cached: next request is an nginx hit.
		r2, _ := g.Fetch(ctx, Request{Cid: pub.Cid, Time: day, Country: "CN", UserID: "u4"})
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
		r, _ := g.Fetch(ctx, Request{Cid: missing, Time: day, UserID: "u5"})
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

		r, _ := g.Fetch(ctx, Request{Cid: pub.Cid, Time: day, UserID: "u7"})
		if r.Tier != TierNetwork || r.Bytes != 0 || r.Err != nil {
			t.Fatalf("empty-object fetch = %+v, want a network hit of 0 bytes", r)
		}
		missing := cid.Sum(multicodec.Raw, []byte("404"))
		mctx, cancel := tn.Sched.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if r, _ := g.Fetch(mctx, Request{Cid: missing, Time: day, UserID: "u8"}); r.Err == nil {
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
		r, _ := g.Fetch(ctx, Request{Cid: ra, Time: day})
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

	// A cascade whose only tier ends the walk with a terminal error.
	failing := &Gateway{src: g.src, tiers: []CacheTier{&fakeTier{tier: TierNginx, err: errors.New("no providers")}}}
	rec := httptest.NewRecorder()
	failing.ServeHTTP(rec, httptest.NewRequest("GET", "/ipfs/"+root.String(), nil))
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
		r2, _ := g.Fetch(ctx, Request{Cid: root, Path: "index.html", Time: day})
		if r2.Tier != TierNginx {
			t.Errorf("second path fetch tier = %v, want nginx", r2.Tier)
		}
	})
}

// countingStore counts the blocks read from it.
type countingStore struct {
	block.Store
	gets atomic.Int64
}

func (s *countingStore) Get(c cid.Cid) (block.Block, error) {
	s.gets.Add(1)
	return s.Store.Get(c)
}

// TestMissingPathUnderHeldRootIs404: a path missing under a directory
// the gateway holds whole is missing for good. The node store answers
// 404 from the root's own verified bytes: it reads the root block
// alone, not the tree's other 20 blocks, and no retrieval runs.
func TestMissingPathUnderHeldRootIs404(t *testing.T) {
	store := &countingStore{Store: block.NewMemStore()}
	ident := peer.MustNewIdentity(rand.New(rand.NewSource(3)))
	ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := core.New(ident, ep, core.Config{Mode: dht.ModeServer, Store: store})
	t.Cleanup(func() { node.Close() })
	files := make(map[string][]byte)
	for i := 0; i < 20; i++ {
		files[fmt.Sprintf("file%02d.txt", i)] = bytes.Repeat([]byte{byte(i)}, 1000)
	}
	root, err := node.AddTree(files)
	if err != nil {
		t.Fatal(err)
	}
	node.Pinner().Pin(root)
	g := New(node, 4<<20, node.Swarm().Time())
	srv := httptest.NewServer(g)
	defer srv.Close()

	gets, traces := store.gets.Load(), len(node.Telemetry().Traces())
	resp, _, err := get(t, srv.URL+"/ipfs/"+root.String()+"/nope.txt")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %d, want 404", resp.StatusCode)
	}
	if n := store.gets.Load() - gets; n != 1 {
		t.Errorf("%d blocks read, want the root alone", n)
	}
	if n := len(node.Telemetry().Traces()) - traces; n != 0 {
		t.Errorf("%d traces recorded, want no retrieval", n)
	}
	if n := node.Telemetry().Registry().Counter("retrieves_total", "router", node.Router().Name()).Value(); n != 0 {
		t.Errorf("retrieves_total = %v, want 0", n)
	}
	if log := g.Log(); len(log) != 1 || !log[0].Err() || log[0].Tier != TierNodeStore {
		t.Errorf("log = %+v, want one failed node-store entry", log)
	}
}

// TestNodeStoreWalkedOncePerRequest: a request walks the gateway's node
// store at most once. A whole root is read once by the node-store tier;
// an invalid one is refused there, with merkledag.ErrInvalid logged as
// the network's verdict, without a second walk; a root held with a leaf
// missing is walked by the node-store tier and then by the retrieval's
// session, which reads the leaves the store holds and fetches the one it
// lacks. The node's Retrieve answers and refuses held roots with one
// walk and records no retrieval.
func TestNodeStoreWalkedOncePerRequest(t *testing.T) {
	store := &countingStore{Store: block.NewMemStore()}
	node := func(seed int64, store block.Store) *core.Node {
		ident := peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
		ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := core.New(ident, ep, core.Config{Mode: dht.ModeServer, Store: store})
		t.Cleanup(func() { n.Close() })
		return n
	}
	origin, gw := node(1, nil), node(2, store)
	if _, _, err := gw.Swarm().Connect(context.Background(), origin.ID(), origin.Addrs()); err != nil {
		t.Fatal(err)
	}
	g := New(gw, 4<<20, gw.Swarm().Time())
	srv := httptest.NewServer(g)
	defer srv.Close()
	reads := func(do func()) int64 {
		before := store.gets.Load()
		do()
		return store.gets.Load() - before
	}
	object := func(seed int64) []byte {
		data := make([]byte, 1<<20) // a root over four leaves
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}

	pinned, err := g.Pin(object(11))
	if err != nil {
		t.Fatal(err)
	}
	if n := reads(func() {
		if resp, _ := g.FetchData(context.Background(), Request{Cid: pinned}); resp.Err != nil || resp.Tier != TierNodeStore {
			t.Errorf("pinned root: %v from %v, want the node store", resp.Err, resp.Tier)
		}
	}); n != 5 {
		t.Errorf("pinned root: %d blocks read, want 5", n)
	}

	invalid := putRoot(t, store, [][]byte{bytes.Repeat([]byte{'a'}, 3000), bytes.Repeat([]byte{'b'}, 5000)}, []uint64{3000, 0})
	if n := reads(func() {
		if resp, _ := g.FetchData(context.Background(), Request{Cid: invalid}); !errors.Is(resp.Err, merkledag.ErrInvalid) {
			t.Errorf("invalid root: FetchData err = %v, want ErrInvalid", resp.Err)
		}
	}); n != 3 {
		t.Errorf("invalid root: FetchData read %d blocks, want 3", n)
	}
	if n := reads(func() {
		if resp, _, err := get(t, srv.URL+"/ipfs/"+invalid.String()); err != nil || resp.StatusCode != http.StatusNotFound {
			t.Errorf("invalid root: HTTP %v, %v; want 404", resp, err)
		}
	}); n != 3 {
		t.Errorf("invalid root: HTTP read %d blocks, want 3", n)
	}
	for _, e := range g.Log()[1:] {
		if !e.Err() || e.Tier != TierNetwork {
			t.Errorf("invalid root: log entry %+v, want a failed network entry", e)
		}
	}

	partial, err := origin.Add(object(12))
	if err != nil {
		t.Fatal(err)
	}
	cids, err := merkledag.AllCids(origin.Store(), partial)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cids[:len(cids)-1] { // all but the last leaf
		blk, err := origin.Store().Get(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(blk); err != nil {
			t.Fatal(err)
		}
	}
	if n := reads(func() {
		resp, body, err := get(t, srv.URL+"/ipfs/"+partial.String())
		if err != nil || resp.StatusCode != http.StatusOK || len(body) != 1<<20 || resp.Header.Get("X-Ipfs-Gateway-Tier") != TierNetwork.String() {
			t.Errorf("partial root: %v, %d bytes, %v; want 200 from the network", resp, len(body), err)
		}
	}); n != 10 {
		t.Errorf("partial root: %d blocks read, want 10", n)
	}

	reg := gw.Telemetry().Registry()
	retrieves, traces := reg.Counter("retrieves_total", "router", gw.Router().Name()).Value(), len(gw.Telemetry().Traces())
	if n := reads(func() {
		if _, _, err := gw.Retrieve(context.Background(), invalid); !errors.Is(err, merkledag.ErrInvalid) {
			t.Errorf("Retrieve of the invalid root: err = %v, want ErrInvalid", err)
		}
	}); n != 3 {
		t.Errorf("Retrieve of the invalid root: %d blocks read, want 3", n)
	}
	if n := reads(func() {
		if data, _, err := gw.Retrieve(context.Background(), pinned); err != nil || !bytes.Equal(data, object(11)) {
			t.Errorf("Retrieve of the pinned root: %d bytes, %v", len(data), err)
		}
	}); n != 5 {
		t.Errorf("Retrieve of the pinned root: %d blocks read, want 5", n)
	}
	if n := reg.Counter("retrieves_total", "router", gw.Router().Name()).Value(); n != retrieves {
		t.Errorf("retrieves_total %v → %v, want no retrieval recorded", retrieves, n)
	}
	if n := len(gw.Telemetry().Traces()); n != traces {
		t.Errorf("%d traces → %d, want no retrieval recorded", traces, n)
	}
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

func (f *fakeTier) Get(context.Context, Request) (Object, time.Duration, error) {
	f.gets++
	if f.data != nil {
		return Object{f.data}, time.Duration(f.tier+1) * time.Millisecond, nil
	}
	return nil, time.Second, f.err
}

func (f *fakeTier) Put(_ Request, obj Object) { f.puts = append(f.puts, bytes.Join(obj, nil)) }

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

// tcpGateway returns a wall-clock gateway over loopback TCP, its node
// connected to an origin node that keeps its blocks in originStore (nil:
// a fresh MemStore). Both nodes close with the test.
func tcpGateway(t testing.TB, originStore block.Store) (*Gateway, *core.Node) {
	t.Helper()
	node := func(seed int64, store block.Store) *core.Node {
		ident := peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
		ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n := core.New(ident, ep, core.Config{Mode: dht.ModeServer, Store: store})
		t.Cleanup(func() { n.Close() })
		return n
	}
	origin, gw := node(1, originStore), node(2, nil)
	if _, _, err := gw.Swarm().Connect(context.Background(), origin.ID(), origin.Addrs()); err != nil {
		t.Fatal(err)
	}
	return New(gw, 4<<20, gw.Swarm().Time()), origin
}

// get fetches url and reads the whole body, returning the read error
// (nil for a body that ended where its Content-Length said).
func get(t *testing.T, url string) (*http.Response, []byte, error) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// TestServeHTTPEachTierWholeObject: a 1 MiB object (four leaves and a
// root) comes back byte-identical with its Content-Length from each
// tier — streamed from the network on the miss, then whole from the
// nginx cache — and likewise from the node store. A UnixFS tree's root,
// a directory whose own Data is not content, comes back as its files'
// concatenated leaves with the same Content-Length streamed and cached,
// also when its last file in link order is empty; a path beneath a
// root the network supplies still resolves.
func TestServeHTTPEachTierWholeObject(t *testing.T) {
	g, origin := tcpGateway(t, nil)
	srv := httptest.NewServer(g)
	defer srv.Close()
	object := func(seed int64) []byte {
		data := make([]byte, 1<<20)
		rand.New(rand.NewSource(seed)).Read(data)
		return data
	}
	remote, pinned, file, small := object(1), object(2), object(3), []byte("small file")
	files := append(append([]byte(nil), small...), file...) // the tree's leaves in link order
	remoteRoot, err := origin.Add(remote)
	if err != nil {
		t.Fatal(err)
	}
	pinnedRoot, err := g.Pin(pinned)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := origin.AddTree(map[string][]byte{"a.txt": small, "dir/file.bin": file})
	if err != nil {
		t.Fatal(err)
	}
	last := object(4)
	emptyLast, err := origin.AddTree(map[string][]byte{"a.bin": last, "b.txt": {}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		path  string
		tier  Tier
		want  []byte
		clear bool // drop the gateway's unpinned blocks first
	}{
		{remoteRoot.String(), TierNetwork, remote, false},
		{remoteRoot.String(), TierNginx, remote, false},
		{pinnedRoot.String(), TierNodeStore, pinned, false},
		{tree.String(), TierNetwork, files, false},
		{tree.String(), TierNginx, files, false},
		{emptyLast.String(), TierNetwork, last, false},
		{emptyLast.String(), TierNginx, last, false},
		{tree.String() + "/dir/file.bin", TierNetwork, file, true},
	} {
		if c.clear {
			g.Node().ClearStore()
		}
		resp, body, err := get(t, srv.URL+"/ipfs/"+c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ipfs-Gateway-Tier") != c.tier.String() {
			t.Errorf("%s: status %d from %q, want 200 from %q", c.path, resp.StatusCode, resp.Header.Get("X-Ipfs-Gateway-Tier"), c.tier)
		}
		if resp.ContentLength != int64(len(c.want)) || !bytes.Equal(body, c.want) {
			t.Errorf("%s from %v: Content-Length %d, %d bytes back, equal %v; want %d", c.path, c.tier,
				resp.ContentLength, len(body), bytes.Equal(body, c.want), len(c.want))
		}
	}
}

// swapStore answers Get for one CID with another block: a provider
// whose copy of that block fails its hash at the receiver.
type swapStore struct {
	block.Store
	bad  cid.Cid
	with block.Block
}

func (s *swapStore) Get(c cid.Cid) (block.Block, error) {
	if c.Equal(s.bad) {
		return s.with, nil
	}
	return s.Store.Get(c)
}

// putRoot stores, beside the leaves it links, a root whose links
// declare the given sizes — a DAG whose root lies about its content.
func putRoot(t *testing.T, store block.Store, leaves [][]byte, sizes []uint64) cid.Cid {
	t.Helper()
	root := &merkledag.Node{}
	for i, data := range leaves {
		leaf := block.New(multicodec.DagPB, (&merkledag.Node{Data: data}).Encode())
		if err := store.Put(leaf); err != nil {
			t.Fatal(err)
		}
		root.Links = append(root.Links, merkledag.Link{Cid: leaf.Cid(), Size: sizes[i]})
	}
	blk := block.New(multicodec.DagPB, root.Encode())
	if err := store.Put(blk); err != nil {
		t.Fatal(err)
	}
	return blk.Cid()
}

// TestServeHTTPAbortsFailedStream: once a streamed miss has sent its
// header, a failure reaches the client as a cut connection, never as a
// complete 200 — whether the origin's second leaf fails its hash or
// the leaves do not sum to what the root declares (short, over, or a
// root declaring 1 TiB). The log entry is marked failed and the nginx
// cache is not filled.
func TestServeHTTPAbortsFailedStream(t *testing.T) {
	store := &swapStore{Store: block.NewMemStore()}
	g, origin := tcpGateway(t, store)
	srv := httptest.NewServer(g)
	defer srv.Close()

	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	corrupt, err := origin.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	cids, err := merkledag.AllCids(store, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	store.bad = cids[2] // the second leaf, after the root and the first
	if store.with, err = store.Store.Get(cids[1]); err != nil {
		t.Fatal(err)
	}

	a, b := bytes.Repeat([]byte{'a'}, 3000), bytes.Repeat([]byte{'b'}, 5000)
	for _, c := range []struct {
		name string
		root cid.Cid
		size int64 // the Content-Length the root declares
	}{
		{"second leaf fails its hash", corrupt, 1 << 20},
		{"leaves short of the declared size", putRoot(t, store, [][]byte{a, b}, []uint64{3000, 6000}), 9000},
		{"leaves over the declared size", putRoot(t, store, [][]byte{a, b}, []uint64{3000, 4000}), 7000},
		{"declared size reached before the last leaf", putRoot(t, store, [][]byte{a, b}, []uint64{3000, 0}), 3000},
		{"root declaring 1 TiB", putRoot(t, store, [][]byte{a}, []uint64{1 << 40}), 1 << 40},
	} {
		// The walk stores what it verified: clear it, so every request
		// here is a network miss.
		g.Node().ClearStore()
		resp, body, err := get(t, srv.URL+"/ipfs/"+c.root.String())
		if err == nil {
			t.Errorf("%s: status %d and %d bytes read to a clean end; want the response cut short", c.name, resp.StatusCode, len(body))
		} else if resp != nil && (resp.StatusCode != http.StatusOK || resp.ContentLength != c.size || int64(len(body)) >= c.size) {
			t.Errorf("%s: status %d, Content-Length %d, %d bytes before %v; want 200 declaring %d, cut short",
				c.name, resp.StatusCode, resp.ContentLength, len(body), err, c.size)
		}
		log := g.Log()
		if last := log[len(log)-1]; !last.Err() || last.Tier != TierNetwork || !last.Cid.Equal(c.root) {
			t.Errorf("%s: log entry %+v, want a failed network fetch of the root", c.name, last)
		}
		if g.Node().ClearStore(); abort(g, c.root) != http.ErrAbortHandler {
			t.Errorf("%s: ServeHTTP returned; want it to panic with http.ErrAbortHandler", c.name)
		}
	}
	if n := g.tiers[0].(nginxTier).cache.Len(); n != 0 {
		t.Errorf("nginx cache holds %d objects after failed fetches, want none", n)
	}
}

// abort serves root straight through ServeHTTP and returns what the
// handler panicked with.
func abort(g *Gateway, root cid.Cid) (p any) {
	defer func() { p = recover() }()
	g.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/ipfs/"+root.String(), nil))
	return nil
}

// TestOversizedRootAllocatesFromLeaves: a root declaring 1 TiB over one
// 3000-byte leaf costs what the leaf does, and fails, served over HTTP
// or through FetchData: no buffer is sized from a declared length.
func TestOversizedRootAllocatesFromLeaves(t *testing.T) {
	store := block.NewMemStore()
	g, _ := tcpGateway(t, store)
	srv := httptest.NewServer(g)
	defer srv.Close()
	root := putRoot(t, store, [][]byte{bytes.Repeat([]byte{'a'}, 3000)}, []uint64{1 << 40})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, body, err := get(t, srv.URL+"/ipfs/"+root.String()); err == nil || len(body) > 3000 {
		t.Errorf("HTTP: %d bytes, err %v; want at most the 3000-byte leaf, then a cut", len(body), err)
	}
	if resp, data := g.FetchData(context.Background(), Request{Cid: root}); resp.Err == nil {
		t.Errorf("FetchData: %d bytes from %v; want the root refused", len(data), resp.Tier)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Errorf("serving a 3000-byte object that declares 1 TiB allocated %d bytes", alloc)
	}
}

// TestLyingDAGRefusedByEveryReader: a DAG whose root declares only its
// first leaf, pinned in the gateway's own store, is refused by every
// reader: HTTP, FetchData, the node's Cat and unixfs.ReadFile. None
// answers from the node store.
func TestLyingDAGRefusedByEveryReader(t *testing.T) {
	g, _ := tcpGateway(t, nil)
	srv := httptest.NewServer(g)
	defer srv.Close()
	store := g.Node().Store()
	root := putRoot(t, store, [][]byte{bytes.Repeat([]byte{'a'}, 3000), bytes.Repeat([]byte{'b'}, 5000)}, []uint64{3000, 0})
	g.Node().Pinner().Pin(root)
	if resp, body, err := get(t, srv.URL+"/ipfs/"+root.String()); err == nil && resp.StatusCode == http.StatusOK {
		t.Errorf("HTTP answered 200 with %d bytes from %q", len(body), resp.Header.Get("X-Ipfs-Gateway-Tier"))
	}
	if resp, data := g.FetchData(context.Background(), Request{Cid: root}); resp.Err == nil {
		t.Errorf("FetchData answered %d bytes from %v", len(data), resp.Tier)
	}
	if data, err := g.Node().Cat(root); err == nil {
		t.Errorf("Cat answered %d bytes", len(data))
	}
	if data, err := unixfs.ReadFile(store, root, ""); err == nil {
		t.Errorf("unixfs.ReadFile answered %d bytes", len(data))
	}
	for _, e := range g.Log() {
		if !e.Err() || e.Tier == TierNodeStore {
			t.Errorf("log entry %+v, want every fetch failed, none from the node store", e)
		}
	}
}

// TestInvalidLocalDAGAsksNoPeer: a DAG in the gateway's own store that
// is invalid (a root lying about its leaves, or a root block that does
// not decode) is refused by the readers that may reach the network —
// HTTP, FetchData and the node's Retrieve — with merkledag.ErrInvalid,
// and none of them sends a WANT_HAVE: the network holds the same bytes
// under the same CIDs.
func TestInvalidLocalDAGAsksNoPeer(t *testing.T) {
	g, _ := tcpGateway(t, nil)
	srv := httptest.NewServer(g)
	defer srv.Close()
	store := g.Node().Store()
	undecodable := block.New(multicodec.DagPB, []byte("not a dag node"))
	if err := store.Put(undecodable); err != nil {
		t.Fatal(err)
	}
	for _, root := range []cid.Cid{
		putRoot(t, store, [][]byte{bytes.Repeat([]byte{'a'}, 3000), bytes.Repeat([]byte{'b'}, 5000)}, []uint64{3000, 0}),
		undecodable.Cid(),
	} {
		before, _ := g.Node().Bitswap().MsgStats()
		if resp, _, err := get(t, srv.URL+"/ipfs/"+root.String()); err == nil && resp.StatusCode == http.StatusOK {
			t.Errorf("%s: HTTP answered 200", root)
		}
		if resp, _ := g.FetchData(context.Background(), Request{Cid: root}); !errors.Is(resp.Err, merkledag.ErrInvalid) {
			t.Errorf("%s: FetchData err = %v, want ErrInvalid", root, resp.Err)
		}
		if _, _, err := g.Node().Retrieve(context.Background(), root); !errors.Is(err, merkledag.ErrInvalid) {
			t.Errorf("%s: Retrieve err = %v, want ErrInvalid", root, err)
		}
		if after, _ := g.Node().Bitswap().MsgStats(); after != before {
			t.Errorf("%s: %d WANT_HAVEs sent, want none", root, after-before)
		}
	}
}

// TestServeHTTPClientGone: a client that disconnects once the header
// is in fails nothing, whether the object is streamed from the network
// or written whole from the nginx cache. The retrieval completes and
// is counted a success, the nginx cache is filled, and each request
// leaves a successful log entry for the whole object.
func TestServeHTTPClientGone(t *testing.T) {
	g, origin := tcpGateway(t, nil)
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(data)
	root, err := origin.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	for i, tier := range []Tier{TierNetwork, TierNginx} {
		srv := httptest.NewServer(g)
		t.Cleanup(srv.Close)
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET /ipfs/%s HTTP/1.1\r\nHost: gw\r\n\r\n", root)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Ipfs-Gateway-Tier"); resp.StatusCode != http.StatusOK || got != tier.String() {
			t.Fatalf("request %d: status %d from %q, want 200 from %q", i, resp.StatusCode, got, tier)
		}
		conn.Close()
		srv.Close() // waits for the handler, which outlives its client
		log := g.Log()
		if len(log) != i+1 {
			t.Fatalf("request %d: %d log entries, want %d", i, len(log), i+1)
		}
		if e := log[i]; e.Err() || e.Tier != tier || e.Bytes != len(data) {
			t.Errorf("request %d: log entry %+v, want a successful %v fetch of %d bytes", i, e, tier, len(data))
		}
	}
	reg, router := g.Node().Telemetry().Registry(), g.Node().Router().Name()
	if all, failed := reg.Counter("retrieves_total", "router", router).Value(), reg.Counter("retrieve_failures", "router", router).Value(); all != 1 || failed != 0 {
		t.Errorf("node counted %v retrievals, %v failed; want 1, none failed", all, failed)
	}
	if n := g.tiers[0].(nginxTier).cache.Len(); n != 1 {
		t.Errorf("nginx cache holds %d objects, want the one served", n)
	}
}

package gwfleet

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/gateway"
	"repro/internal/merkledag"
	"repro/internal/peer"
	"repro/internal/transport"
)

// originStore is an origin's block store that runs read before every
// Get and serves the block read names: a test holds a block back, or
// answers with the wrong one.
type originStore struct {
	block.Store
	read func(c cid.Cid) cid.Cid
}

func (s *originStore) Get(c cid.Cid) (block.Block, error) {
	return s.Store.Get(s.read(c))
}

// tcpFleet returns a wall-clock fleet of n instances over loopback TCP,
// each instance's node connected to an origin node that keeps its
// blocks in store. The nodes close with the test.
func tcpFleet(t *testing.T, n int, store block.Store) (*Fleet, *core.Node) {
	t.Helper()
	node := func(seed int64, store block.Store) *core.Node {
		ident := peer.MustNewIdentity(rand.New(rand.NewSource(seed)))
		ep, err := transport.ListenTCP(ident, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nd := core.New(ident, ep, core.Config{Mode: dht.ModeServer, Store: store})
		t.Cleanup(func() { nd.Close() })
		return nd
	}
	origin := node(1, store)
	var nodes []*core.Node
	for i := 0; i < n; i++ {
		nd := node(int64(2+i), nil)
		if _, _, err := nd.Swarm().Connect(context.Background(), origin.ID(), origin.Addrs()); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, nd)
	}
	return New(nodes, Config{}), origin
}

// headerGate holds every block below an armed root at the origin until
// the response for that root has written its header, or for at most
// two seconds: a miss that streams is answered before its leaves
// arrive, one that waits for the whole object is not.
type headerGate struct {
	mu     sync.Mutex
	root   cid.Cid
	header chan struct{} // non-nil while armed
	early  bool          // a block was served before the header
}

func (g *headerGate) arm(root cid.Cid) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.root, g.header, g.early = root, make(chan struct{}), false
}

// disarm lets every block through; early records whether the header had
// not yet been written.
func (g *headerGate) disarm(early bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.header != nil {
		close(g.header)
		g.header, g.early = nil, early
	}
}

// served disarms the gate and reports whether a block went out before
// the header.
func (g *headerGate) served() (early bool) {
	g.disarm(false)
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.early
}

func (g *headerGate) read(c cid.Cid) cid.Cid {
	g.mu.Lock()
	root, header := g.root, g.header
	g.mu.Unlock()
	if header == nil || c.Equal(root) {
		return c
	}
	select {
	case <-header:
	case <-time.After(2 * time.Second):
		g.disarm(true)
	}
	return c
}

// hookWriter disarms a gate when its handler writes the header.
type hookWriter struct {
	http.ResponseWriter
	gate *headerGate
}

func (w hookWriter) WriteHeader(code int) {
	w.gate.disarm(false)
	w.ResponseWriter.WriteHeader(code)
}

// TestFleetServeHTTPEachTierWholeObject runs the gateway's tier cases
// through the fleet's HTTP face on a two-instance TCP fleet. A network
// miss is streamed: its header is out while its leaves are still held
// at the origin, and it arrives byte-identical with its Content-Length.
// The node store, the shared cache (on a spill past a shedding owner)
// and the nginx cache answer whole, and every answer names the
// instance that served it.
func TestFleetServeHTTPEachTierWholeObject(t *testing.T) {
	gate := &headerGate{}
	f, origin := tcpFleet(t, 2, &originStore{Store: block.NewMemStore(), read: gate.read})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		f.ServeHTTP(hookWriter{w, gate}, r)
	}))
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
	var pinnedRoot cid.Cid
	for i := 0; i < f.Size(); i++ {
		if pinnedRoot, err = f.Gateway(i).Pin(pinned); err != nil {
			t.Fatal(err)
		}
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
		root     cid.Cid
		path     string
		tier     gateway.Tier
		want     []byte
		streamed bool // the header must beat the leaves
		spill    bool // the owner sheds: its ring successor answers
		clear    bool // drop every instance's unpinned blocks first
	}{
		{remoteRoot, "", gateway.TierNetwork, remote, true, false, false},
		{remoteRoot, "", gateway.TierShared, remote, false, true, false},
		{remoteRoot, "", gateway.TierNginx, remote, false, false, false},
		{pinnedRoot, "", gateway.TierNodeStore, pinned, false, false, false},
		{tree, "", gateway.TierNetwork, files, true, false, false},
		{tree, "", gateway.TierNginx, files, false, false, false},
		{emptyLast, "", gateway.TierNetwork, last, true, false, false},
		{emptyLast, "", gateway.TierNginx, last, false, false, false},
		{tree, "dir/file.bin", gateway.TierNetwork, file, false, false, true},
	} {
		url := srv.URL + "/ipfs/" + c.root.String()
		if c.path != "" {
			url += "/" + c.path
		}
		if c.clear {
			for i := 0; i < f.Size(); i++ {
				f.Gateway(i).Node().ClearStore()
			}
		}
		candidates := f.ring.Successors(gateway.Request{Cid: c.root, Path: c.path}.Key(), 2)
		want := candidates[0]
		if c.spill {
			owner := f.insts[want]
			owner.inflight.Store(int64(f.cfg.MaxInflight + f.cfg.QueueHigh))
			owner.shedding.Store(true)
			want = candidates[1]
		}
		if c.streamed {
			gate.arm(c.root)
		}
		resp, err := http.Get(url)
		if err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("%s from %v: body cut after %d bytes: %v", url, c.tier, len(body), err)
		}
		if c.spill {
			owner := f.insts[candidates[0]]
			owner.inflight.Store(0)
			owner.shedding.Store(false)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Ipfs-Gateway-Tier") != c.tier.String() {
			t.Errorf("%s: status %d from %q, want 200 from %q", url, resp.StatusCode, resp.Header.Get("X-Ipfs-Gateway-Tier"), c.tier)
		}
		if got := resp.Header.Get("X-Ipfs-Fleet-Gw"); got != strconv.Itoa(want) {
			t.Errorf("%s from %v: X-Ipfs-Fleet-Gw %q, want %d", url, c.tier, got, want)
		}
		if resp.ContentLength != int64(len(c.want)) || !bytes.Equal(body, c.want) {
			t.Errorf("%s from %v: Content-Length %d, %d bytes back, equal %v; want %d", url, c.tier,
				resp.ContentLength, len(body), bytes.Equal(body, c.want), len(c.want))
		}
		if c.streamed && gate.served() {
			t.Errorf("%s from %v: the origin served a leaf before the header went out; want the miss streamed", url, c.tier)
		}
	}
}

// TestFleetServeHTTPAbortsFailedStream: a streamed miss whose second
// leaf fails its hash after the header went out makes Fleet.ServeHTTP
// panic with http.ErrAbortHandler, after the fleet has released the
// instance's admission slot, counted one origin failure and opened the
// root's negative window. The next request for the root is answered a
// plain 404 from that window.
func TestFleetServeHTTPAbortsFailedStream(t *testing.T) {
	var (
		mu        sync.Mutex
		bad, with cid.Cid
	)
	f, origin := tcpFleet(t, 2, &originStore{Store: block.NewMemStore(), read: func(c cid.Cid) cid.Cid {
		mu.Lock()
		defer mu.Unlock()
		if c.Equal(bad) {
			return with
		}
		return c
	}})
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data)
	root, err := origin.Add(data)
	if err != nil {
		t.Fatal(err)
	}
	cids, err := merkledag.AllCids(origin.Store(), root)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	bad, with = cids[2], cids[1] // the second leaf answered with the first
	mu.Unlock()

	owner := f.ring.Place(gateway.Request{Cid: root}.Key())
	before := f.Stats()
	rec := httptest.NewRecorder()
	if p := serveHTTP(f, rec, root); p != http.ErrAbortHandler {
		t.Fatalf("ServeHTTP ended with %v; want a panic with http.ErrAbortHandler", p)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("X-Ipfs-Gateway-Tier") != gateway.TierNetwork.String() {
		t.Errorf("status %d from %q; want the streamed 200 header out before the failure", rec.Code, rec.Header().Get("X-Ipfs-Gateway-Tier"))
	}
	if n := f.insts[owner].inflight.Load(); n != 0 {
		t.Errorf("instance %d holds %d admission slots after the abort, want 0", owner, n)
	}
	if st := f.Stats().Sub(before); st.Requests != 1 || st.OriginFail != 1 || st.Served() != 0 {
		t.Errorf("stats delta = %+v, want one request and one origin failure", st)
	}
	if !f.Shared().KnownMissing(root) {
		t.Error("the failed root is not in the negative window")
	}

	rec = httptest.NewRecorder()
	if p := serveHTTP(f, rec, root); p != nil {
		t.Fatalf("ServeHTTP inside the negative window panicked with %v", p)
	}
	if rec.Code != http.StatusNotFound || rec.Header().Get("X-Ipfs-Gateway-Tier") != "" ||
		rec.Body.String() != "not found: "+ErrKnownMissing.Error()+"\n" {
		t.Errorf("negative hit: status %d, body %q, headers %v; want a plain 404", rec.Code, rec.Body.String(), rec.Header())
	}
}

// serveHTTP serves root through f's HTTP face into rec and returns what
// the handler panicked with.
func serveHTTP(f *Fleet, rec *httptest.ResponseRecorder, root cid.Cid) (p any) {
	defer func() { p = recover() }()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ipfs/"+root.String(), nil))
	return nil
}

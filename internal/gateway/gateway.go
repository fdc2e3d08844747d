// Package gateway implements the HTTP entry point of §3.4: a bridge
// between plain HTTP clients and the P2P network.
//
// Every request, over HTTP or not, is served by one walk over an
// ordered list of CacheTier values: the nginx-style LRU web cache, the
// IPFS node store holding pinned content (the Web3/NFT Storage
// uploads), any tiers the caller of New slots in (internal/gwfleet's
// shared object and negative caches), and last a full P2P retrieval,
// which streams a miss to an HTTP client as it verifies. The first tier
// that answers wins and the tiers above it are filled with the Object,
// never a copy. That walk is also the one place a request is accounted:
// it names the answering tier and appends the access-log entry (the
// §4.2 dataset's fields, in a bounded ring) that Summarize turns into
// Table 5.
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/lru"
	"repro/internal/merkledag"
	"repro/internal/simtime"
	"repro/internal/unixfs"
)

// Tier identifies which storage layer served a request (Table 5).
type Tier int

// Serving tiers.
const (
	TierNginx     Tier = iota // default nginx web cache (latency ~0)
	TierNodeStore             // gateway's local IPFS node store (pinned content)
	TierNetwork               // full P2P retrieval
	TierShared                // fleet-shared cache tier (internal/gwfleet)
)

// String names the tier as Table 5 does.
func (t Tier) String() string {
	switch t {
	case TierNginx:
		return "nginx cache"
	case TierNodeStore:
		return "IPFS node store"
	case TierNetwork:
		return "Non Cached"
	case TierShared:
		return "fleet shared cache"
	}
	return "unknown"
}

// NodeStoreLatency models serving from the gateway's local IPFS node:
// Table 5 reports a consistent 8 ms median, below 24 ms.
const NodeStoreLatency = 8 * time.Millisecond

// Request is one client GET.
type Request struct {
	Cid      cid.Cid
	Path     string     // optional UnixFS path beneath the root CID
	Time     time.Time  // request timestamp (drives Fig 11b binning)
	Country  geo.Region // Maxmind-style geolocated client country
	Referrer string     // HTTP referrer, "" for direct access
	UserID   string     // IP+user-agent aggregation key (§4.2)
}

// Response is the serving outcome.
type Response struct {
	Tier    Tier
	Latency time.Duration // simulated retrieval delay
	Bytes   int
	Err     error
}

// LogEntry is one access-log line (the §4.2 dataset schema).
type LogEntry struct {
	Time     time.Time
	UserID   string
	Country  geo.Region
	Cid      cid.Cid
	Referrer string
	Bytes    int
	Latency  time.Duration
	Tier     Tier
	failed   bool // the fetch returned an error
}

// Object is a served object as its leaves' data in link order: slices
// of verified blocks, shared with the node store and never written.
type Object [][]byte

// Len is the object's size in bytes.
func (o Object) Len() int {
	n := 0
	for _, leaf := range o {
		n += len(leaf)
	}
	return n
}

// ErrMiss is what a CacheTier's Get returns to pass the request on to
// the next tier of the cascade.
var ErrMiss = errors.New("gateway: tier miss")

// CacheTier is one stage of the serving cascade above the network. The
// cascade asks the tiers in order; the first whose Get does not return
// ErrMiss answers the request, else the network does, and every tier
// above the one that answered is then offered the object.
type CacheTier interface {
	// Tier names the stage in responses, log entries and HTTP headers.
	Tier() Tier
	// Get answers the request with the object and the retrieval delay,
	// returns ErrMiss to ask the next tier, or returns a terminal error
	// (a negative-cache entry) that ends the walk.
	Get(ctx context.Context, req Request) (obj Object, latency time.Duration, err error)
	// Put offers the tier an object a lower tier produced.
	Put(req Request, obj Object)
}

// logCap bounds the access log: a long-running daemon keeps the most
// recent logCap requests, and every experiment replays far fewer
// through one gateway.
const logCap = 1 << 16

// Gateway bridges HTTP to a core node.
type Gateway struct {
	node  *core.Node
	src   simtime.Source
	tiers []CacheTier // the cascade above the network

	mu      sync.Mutex
	log     []LogEntry // a ring once it holds logCap entries
	logHead int        // index of the oldest entry
}

// New creates a gateway in front of node whose cascade is an nginx
// cache bounded to cacheBytes, the node's own store, the mid tiers (a
// fleet's shared caches; none for a single gateway) and finally the P2P
// network. HTTP requests are stamped on src.
func New(node *core.Node, cacheBytes int64, src simtime.Source, mid ...CacheTier) *Gateway {
	tiers := []CacheTier{nginxTier{lru.New[Object](cacheBytes)}, storeTier{node}}
	return &Gateway{node: node, src: src, tiers: append(tiers, mid...)}
}

// Node returns the backing node (the "DHT server" half of the bridge).
func (g *Gateway) Node() *core.Node { return g.node }

// Pin imports content into the gateway's node store and pins it, as the
// Web3/NFT Storage initiatives do (§3.4). Returns the root CID.
func (g *Gateway) Pin(data []byte) (cid.Cid, error) {
	root, err := g.node.Add(data)
	if err != nil {
		return cid.Cid{}, err
	}
	g.node.Pinner().Pin(root)
	return root, nil
}

// Key identifies the (root, path) object a request names: what the
// object caches index by and a fleet's ring places by.
func (r Request) Key() string { return r.Cid.Key() + "\x00" + r.Path }

// Fetch serves one request through the tier cascade. The object is
// shared with the caches and the node store: read it, never write it.
func (g *Gateway) Fetch(ctx context.Context, req Request) (Response, Object) {
	return g.serve(ctx, req, nil)
}

// FetchData is Fetch with the object copied into one slice the caller
// owns; nil for a failed fetch.
func (g *Gateway) FetchData(ctx context.Context, req Request) (Response, []byte) {
	resp, obj := g.serve(ctx, req, nil)
	if resp.Err != nil {
		return resp, nil
	}
	return resp, bytes.Join(obj, nil)
}

// serve is the cascade: the first tier to answer, or else the network,
// is named in the response and its object sent to out, the tiers above
// are filled in order, and exactly one log entry is written.
func (g *Gateway) serve(ctx context.Context, req Request, out *Stream) (Response, Object) {
	resp, i := Response{Tier: TierNetwork}, 0
	var obj Object
	for ; i < len(g.tiers); i++ {
		var err error
		if obj, resp.Latency, err = g.tiers[i].Get(ctx, req); !errors.Is(err, ErrMiss) {
			resp.Tier, resp.Err = g.tiers[i].Tier(), err
			if errors.Is(err, merkledag.ErrInvalid) {
				// The network holds the same bytes under the same CIDs:
				// the refusal is its verdict, found early.
				resp.Tier = TierNetwork
			}
			break
		}
	}
	if i == len(g.tiers) {
		obj, resp.Latency, resp.Err = g.retrieve(ctx, req, out)
	}
	if resp.Err != nil {
		obj = nil
	} else {
		resp.Bytes = obj.Len()
		out.send(resp.Tier, obj)
		for _, above := range g.tiers[:i] {
			above.Put(req, obj)
		}
	}
	g.append(req, resp)
	return resp, obj
}

// nginxTier is the "default nginx web cache, with a Least Recently
// Used replacement strategy" (§3.4). Hits have a retrieval delay of 0
// (§6.3).
type nginxTier struct{ cache *lru.Cache[Object] }

func (nginxTier) Tier() Tier { return TierNginx }

func (t nginxTier) Get(_ context.Context, req Request) (Object, time.Duration, error) {
	if obj, ok := t.cache.Get(req.Key()); ok {
		return obj, 0, nil
	}
	return nil, 0, ErrMiss
}

func (t nginxTier) Put(req Request, obj Object) { t.cache.Put(req.Key(), obj, int64(obj.Len())) }

// storeTier is the gateway's own IPFS node store (pinned content),
// "resulting consistently in a delay below 24 ms". It is filled by
// pinning and by the node's retrievals, never by the cascade. Its walk
// is the one a held root gets: a whole DAG is answered, an invalid one
// (merkledag.ErrInvalid) and a path its verified directories lack are
// refused for good, and a partial DAG misses to the network.
type storeTier struct{ node *core.Node }

func (storeTier) Tier() Tier { return TierNodeStore }

func (t storeTier) Get(_ context.Context, req Request) (Object, time.Duration, error) {
	// Has answers a missing root without a walk, whose failure would
	// format an error nobody reads; a partial DAG still misses below.
	if !t.node.Store().Has(req.Cid) {
		return nil, 0, ErrMiss
	}
	obj, err := localObject(t.node, req)
	switch {
	case err == nil:
		return obj, NodeStoreLatency, nil
	case errors.Is(err, unixfs.ErrNotFound), errors.Is(err, unixfs.ErrNotDirectory), errors.Is(err, merkledag.ErrInvalid):
		// Read from verified blocks, which no other copy of the root
		// can contradict: the refusal is final.
		return nil, NodeStoreLatency, err
	}
	return nil, 0, ErrMiss
}

func (storeTier) Put(Request, Object) {}

// retrieve is the end of every cascade: a full P2P retrieval of the
// root DAG through the co-located node (core.RetrieveTo), whose session
// reads the blocks the node store already holds. A path-less request is
// answered with the leaves the retrieval verified, streamed to out (if
// any) as they verify — one walk, and no dependence on the node store
// still holding every block afterwards; a path resolves locally once
// the DAG is in. A failed retrieval is terminal.
func (g *Gateway) retrieve(ctx context.Context, req Request, out *Stream) (Object, time.Duration, error) {
	var obj Object
	res, err := g.node.RetrieveTo(ctx, req.Cid, func(_ cid.Cid, n *merkledag.Node) error {
		if len(n.Links) == 0 {
			obj = append(obj, n.Data)
		}
		if out != nil && req.Path == "" {
			out.visit(n)
		}
		return nil
	})
	if err == nil && req.Path != "" {
		obj, err = localObject(g.node, req)
	}
	if err != nil {
		return nil, res.Total, err
	}
	return obj, res.Total, nil
}

// localObject serves a request from the node store alone: the raw DAG
// for path-less requests, or the file beneath the UnixFS path.
func localObject(node *core.Node, req Request) (Object, error) {
	if req.Path == "" {
		return merkledag.Leaves(node.Store(), req.Cid)
	}
	return unixfs.FileLeaves(node.Store(), req.Cid, req.Path)
}

func (g *Gateway) append(req Request, resp Response) {
	e := LogEntry{
		Time:     req.Time,
		UserID:   req.UserID,
		Country:  req.Country,
		Cid:      req.Cid,
		Referrer: req.Referrer,
		Bytes:    resp.Bytes,
		Latency:  resp.Latency,
		Tier:     resp.Tier,
		failed:   resp.Err != nil,
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.log) < logCap {
		g.log = append(g.log, e)
		return
	}
	g.log[g.logHead] = e
	g.logHead = (g.logHead + 1) % logCap
}

// Log returns a copy of the access log, oldest entry first: the most
// recent logCap requests.
func (g *Gateway) Log() []LogEntry {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]LogEntry, 0, len(g.log))
	out = append(out, g.log[g.logHead:]...)
	return append(out, g.log[:g.logHead]...)
}

// ParseRequest reads GET /ipfs/{CID}[/path] (§3.4) into a Request
// stamped now. On anything else it writes the 4xx answer itself and
// reports false.
func ParseRequest(w http.ResponseWriter, r *http.Request, now time.Time) (Request, bool) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return Request{}, false
	}
	full := strings.TrimPrefix(r.URL.Path, "/ipfs/")
	if full == r.URL.Path || full == "" {
		http.Error(w, "usage: GET /ipfs/{CID}[/path]", http.StatusBadRequest)
		return Request{}, false
	}
	cidPart, subPath := full, ""
	if i := strings.IndexByte(full, '/'); i >= 0 {
		cidPart, subPath = full[:i], strings.Trim(full[i+1:], "/")
	}
	c, err := cid.Parse(cidPart)
	if err != nil {
		http.Error(w, fmt.Sprintf("invalid CID: %v", err), http.StatusBadRequest)
		return Request{}, false
	}
	return Request{
		Cid:      c,
		Path:     subPath,
		Time:     now,
		Referrer: r.Referer(),
		UserID:   r.RemoteAddr + "|" + r.UserAgent(),
	}, true
}

// ServeHTTP implements the public HTTP face: GET /ipfs/{CID}[/path],
// answered by Serve. A client that goes away cancels nothing: the
// request is served to its end, bounded by the retrieval's own
// timeouts, so the caches still fill and the log records the object's
// outcome, not the client's.
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, ok := ParseRequest(w, r, g.src.Now())
	if !ok {
		return
	}
	if _, abort := g.Serve(context.WithoutCancel(r.Context()), w, req); abort {
		panic(http.ErrAbortHandler)
	}
}

// Serve answers a parsed request through the cascade. With a client (w
// not nil) a Stream writes the answer as it comes: the object, a
// network miss as it verifies, or a 404 for a fetch that failed before
// anything was sent. abort reports a failure after the header went
// out: the handler must then panic with http.ErrAbortHandler, so its
// client sees a short body, not a 200. Without a client Serve only
// fetches.
func (g *Gateway) Serve(ctx context.Context, w http.ResponseWriter, req Request) (resp Response, abort bool) {
	var out *Stream
	if w != nil {
		out = &Stream{w: w}
	}
	if resp, _ = g.serve(ctx, req, out); resp.Err == nil || out == nil {
		return resp, false
	}
	if !out.started {
		http.Error(w, fmt.Sprintf("not found: %v", resp.Err), http.StatusNotFound)
	}
	return resp, out.started
}

// Stream is a request's HTTP response while the cascade answers it. Its
// header declares the length, so the body is never chunked: that of
// the object a tier returned, or, when the network streams a miss, the
// verified root's ContentSize, which the walk holds every child to. A
// streamed miss writes each leaf as it verifies but holds its final
// byte back until the cascade reports success (send), so a failure
// after the header, whatever its cause, leaves the client short. A
// client gone mid-body is not the object's failure: the write's error
// is dropped (later writes fail at once) and the walk goes on.
type Stream struct {
	w       http.ResponseWriter
	started bool
	held    []byte // a streamed miss's last byte so far
}

func (s *Stream) header(t Tier, size uint64) {
	h := s.w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatUint(size, 10))
	h.Set("X-Ipfs-Gateway-Tier", t.String())
	s.w.WriteHeader(http.StatusOK)
	s.started = true
}

// send completes a served request: it writes an object a tier returned
// whole, or a streamed miss's held byte. Without a client it does
// nothing.
func (s *Stream) send(t Tier, obj Object) {
	if s == nil {
		return
	}
	if s.started {
		s.w.Write(s.held)
		return
	}
	s.header(t, uint64(obj.Len()))
	for _, leaf := range obj {
		s.w.Write(leaf)
	}
}

// visit writes a network miss as the walk verifies it: the header at
// the root, then each leaf, holding back the last byte so far.
func (s *Stream) visit(n *merkledag.Node) {
	if !s.started {
		s.header(TierNetwork, n.ContentSize())
	}
	if len(n.Links) == 0 && len(n.Data) > 0 {
		s.w.Write(s.held)
		s.w.Write(n.Data[:len(n.Data)-1])
		s.held = n.Data[len(n.Data)-1:]
	}
}

// TierStats aggregates the access log into the Table 5 summary.
type TierStats struct {
	Requests      int
	Bytes         int64
	MedianLatency time.Duration
}

// Summarize computes per-tier request share, traffic share and median
// latency from a log.
func Summarize(log []LogEntry) map[Tier]TierStats {
	latencies := map[Tier][]time.Duration{}
	out := map[Tier]TierStats{}
	for _, e := range log {
		if e.Err() {
			continue
		}
		s := out[e.Tier]
		s.Requests++
		s.Bytes += int64(e.Bytes)
		out[e.Tier] = s
		latencies[e.Tier] = append(latencies[e.Tier], e.Latency)
	}
	for tier, ls := range latencies {
		s := out[tier]
		s.MedianLatency = medianDuration(ls)
		out[tier] = s
	}
	return out
}

// Err reports whether the entry recorded a failed fetch.
func (e LogEntry) Err() bool { return e.failed }

func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

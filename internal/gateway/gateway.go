// Package gateway implements the HTTP entry point of §3.4: a bridge
// between plain HTTP clients and the P2P network.
//
// Every request is served by FetchData walking one ordered list of
// CacheTier values: the nginx-style LRU web cache, the IPFS node store
// holding pinned content (the Web3/NFT Storage uploads), any tiers the
// caller of New slots in (internal/gwfleet's shared object and negative
// caches), and last a full P2P retrieval. The first tier that answers
// wins and the tiers above it are filled. That walk is also the one
// place a request is accounted: it names the answering tier and appends
// the access-log entry (the §4.2 dataset's fields, in a bounded ring)
// that Summarize turns into Table 5.
package gateway

import (
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

// ErrMiss is what a CacheTier's Get returns to pass the request on to
// the next tier of the cascade.
var ErrMiss = errors.New("gateway: tier miss")

// CacheTier is one stage of the serving cascade. FetchData asks the
// tiers in order; the first whose Get does not return ErrMiss answers
// the request, and every tier above it is then offered the object.
type CacheTier interface {
	// Tier names the stage in responses, log entries and HTTP headers.
	Tier() Tier
	// Get answers the request with the object and the retrieval delay,
	// returns ErrMiss to ask the next tier, or returns a terminal error
	// (a negative-cache entry, a failed retrieval) that ends the walk.
	Get(ctx context.Context, req Request) (data []byte, latency time.Duration, err error)
	// Put offers the tier an object a lower tier produced.
	Put(req Request, data []byte)
}

// logCap bounds the access log: a long-running daemon keeps the most
// recent logCap requests, and every experiment replays far fewer
// through one gateway.
const logCap = 1 << 16

// Gateway bridges HTTP to a core node.
type Gateway struct {
	node  *core.Node
	src   simtime.Source
	tiers []CacheTier

	mu      sync.Mutex
	log     []LogEntry // a ring once it holds logCap entries
	logHead int        // index of the oldest entry
}

// New creates a gateway in front of node whose cascade is an nginx
// cache bounded to cacheBytes, the node's own store, the mid tiers (a
// fleet's shared caches; none for a single gateway) and finally the P2P
// network. HTTP requests are stamped on src.
func New(node *core.Node, cacheBytes int64, src simtime.Source, mid ...CacheTier) *Gateway {
	tiers := []CacheTier{nginxTier{lru.New[[]byte](cacheBytes)}, storeTier{node}}
	tiers = append(tiers, mid...)
	return &Gateway{node: node, src: src, tiers: append(tiers, networkTier{node})}
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

// Fetch serves one request through the tier cascade.
func (g *Gateway) Fetch(ctx context.Context, req Request) Response {
	resp, _ := g.FetchData(ctx, req)
	return resp
}

// FetchData serves one request through the tier cascade and also
// returns the object: the first tier to answer is named in the
// response, the tiers above it are filled in order, and exactly one log
// entry is written.
func (g *Gateway) FetchData(ctx context.Context, req Request) (Response, []byte) {
	for i, t := range g.tiers {
		data, latency, err := t.Get(ctx, req)
		if errors.Is(err, ErrMiss) {
			continue
		}
		resp := Response{Tier: t.Tier(), Latency: latency, Err: err}
		if err != nil {
			data = nil
		} else {
			resp.Bytes = len(data)
			for _, above := range g.tiers[:i] {
				above.Put(req, data)
			}
		}
		g.append(req, resp)
		return resp, data
	}
	panic("gateway: the network tier reported a miss")
}

// nginxTier is the "default nginx web cache, with a Least Recently
// Used replacement strategy" (§3.4). Hits have a retrieval delay of 0
// (§6.3).
type nginxTier struct{ cache *lru.Cache[[]byte] }

func (nginxTier) Tier() Tier { return TierNginx }

func (t nginxTier) Get(_ context.Context, req Request) ([]byte, time.Duration, error) {
	if data, ok := t.cache.Get(req.Key()); ok {
		return data, 0, nil
	}
	return nil, 0, ErrMiss
}

func (t nginxTier) Put(req Request, data []byte) { t.cache.Put(req.Key(), data, int64(len(data))) }

// storeTier is the gateway's own IPFS node store (pinned content),
// "resulting consistently in a delay below 24 ms". It is filled by
// pinning and by the node's retrievals, never by the cascade.
type storeTier struct{ node *core.Node }

func (storeTier) Tier() Tier { return TierNodeStore }

func (t storeTier) Get(_ context.Context, req Request) ([]byte, time.Duration, error) {
	data, err := assembleLocal(t.node, req)
	if err != nil {
		return nil, 0, ErrMiss
	}
	return data, NodeStoreLatency, nil
}

func (storeTier) Put(Request, []byte) {}

// networkTier is the end of every cascade: a full P2P retrieval of the
// root DAG through the co-located node. A path-less request is answered
// with the object Retrieve assembled — one walk, and no dependence on
// the node store still holding every block afterwards; a path resolves
// locally once the DAG is in. It never misses; a failed retrieval is
// terminal.
type networkTier struct{ node *core.Node }

func (networkTier) Tier() Tier { return TierNetwork }

func (t networkTier) Get(ctx context.Context, req Request) ([]byte, time.Duration, error) {
	data, res, err := t.node.Retrieve(ctx, req.Cid)
	if err == nil && req.Path != "" {
		data, err = t.node.CatPath(req.Cid, req.Path)
	}
	if err != nil {
		return nil, res.Total, err
	}
	return data, res.Total, nil
}

func (networkTier) Put(Request, []byte) {}

// assembleLocal serves a request from the node store alone: the raw
// DAG for path-less requests, or the file beneath the UnixFS path.
func assembleLocal(node *core.Node, req Request) ([]byte, error) {
	if req.Path == "" {
		return merkledag.Assemble(node.Store(), req.Cid)
	}
	return node.CatPath(req.Cid, req.Path)
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

// WriteResponse writes a fetch outcome: 404 for a failed one, otherwise
// the object with the answering tier in X-Ipfs-Gateway-Tier. The object
// is whole in hand, so the response declares its length rather than
// being sent chunked.
func WriteResponse(w http.ResponseWriter, resp Response, data []byte) {
	if resp.Err != nil {
		http.Error(w, fmt.Sprintf("not found: %v", resp.Err), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Header().Set("X-Ipfs-Gateway-Tier", resp.Tier.String())
	w.Write(data)
}

// ServeHTTP implements the public HTTP face: GET /ipfs/{CID}[/path].
func (g *Gateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, ok := ParseRequest(w, r, g.src.Now())
	if !ok {
		return
	}
	resp, data := g.FetchData(r.Context(), req)
	WriteResponse(w, resp, data)
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

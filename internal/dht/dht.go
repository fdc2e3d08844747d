// Package dht implements the Kademlia-based distributed hash table of
// §2.3 and its publication/retrieval walks (§3.1–3.2): 256-bit SHA256
// keys, k = 20 replication, α = 3 iterative parallel lookups, provider
// and peer records with 12 h republish / 24 h expiry, the DHT
// client/server distinction, and the measurement hooks the evaluation
// uses (per-phase durations, crawl RPC).
package dht

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cid"
	"repro/internal/kbucket"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/wire"
)

// Mode distinguishes DHT servers (publicly reachable, store and serve
// records) from DHT clients (request-only, never in routing tables).
type Mode int

// Participation modes (§2.3).
const (
	ModeServer Mode = iota
	ModeClient
)

// Config tunes protocol parameters; zero values select the paper's
// defaults.
type Config struct {
	K            int           // replication factor / bucket size (20)
	Alpha        int           // lookup concurrency (3)
	QueryTimeout time.Duration // per-RPC budget during walks (10 s)
	// OmitProviderAddrs publishes provider records without our
	// multiaddresses, forcing requestors through the second (peer
	// discovery) walk. The §4.3 experiments enable it to model the
	// address-book eviction a 20k-peer network causes, so Figure 9e's
	// two-walk structure is exercised.
	OmitProviderAddrs bool
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = kbucket.DefaultK
	}
	if c.Alpha <= 0 {
		c.Alpha = 3
	}
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 10 * time.Second
	}
	return c
}

// IPNSValidator validates an opaque IPNS record payload for a key; the
// ipns package supplies the implementation.
type IPNSValidator func(key []byte, data []byte) error

// DHT is one peer's view of the distributed hash table.
type DHT struct {
	cfg   Config
	ident peer.Identity
	sw    *swarm.Swarm
	src   simtime.Source // the swarm's: walks sleep, time out, measure and stamp records on it
	table *kbucket.Table
	mode  atomic.Int32 // holds a Mode; AutoNAT flips it while RPCs are in flight

	providers *record.ProviderStore
	peerRecs  *record.PeerStore

	ipnsMu    sync.RWMutex
	ipns      map[string][]byte
	validator IPNSValidator

	seqMu sync.Mutex
	seq   uint64
}

// New creates a DHT participant in the given mode. It runs on the
// swarm's time source.
func New(ident peer.Identity, sw *swarm.Swarm, mode Mode, cfg Config) *DHT {
	cfg = cfg.withDefaults()
	src := sw.Time()
	d := &DHT{
		cfg:       cfg,
		ident:     ident,
		sw:        sw,
		src:       src,
		table:     kbucket.NewTable(ident.ID, cfg.K),
		providers: record.NewProviderStore(record.DefaultExpireInterval, src.Now),
		peerRecs:  record.NewPeerStore(record.DefaultExpireInterval, src.Now),
		ipns:      make(map[string][]byte),
	}
	d.mode.Store(int32(mode))
	return d
}

// Mode returns the participation mode.
func (d *DHT) Mode() Mode { return Mode(d.mode.Load()) }

// SetMode changes the participation mode (after an AutoNAT check).
func (d *DHT) SetMode(m Mode) { d.mode.Store(int32(m)) }

// Table exposes the routing table (the crawler and testnet builder use
// it).
func (d *DHT) Table() *kbucket.Table { return d.table }

// Swarm returns the underlying swarm.
func (d *DHT) Swarm() *swarm.Swarm { return d.sw }

// Time returns the DHT's time source — its swarm's.
func (d *DHT) Time() simtime.Source { return d.src }

// SetIPNSValidator installs the validator for PUT_IPNS payloads.
func (d *DHT) SetIPNSValidator(v IPNSValidator) { d.validator = v }

// Providers exposes the local provider-record store.
func (d *DHT) Providers() *record.ProviderStore { return d.providers }

// Seed inserts a peer, whose DHT key the caller holds, into the routing
// table and address book without dialing; the testnet builder uses it
// to model a long-running network.
func (d *DHT) Seed(info wire.PeerInfo, key kbucket.Key) {
	d.table.Insert(info.ID, key)
	d.sw.Book().Add(info.ID, info.Addrs)
}

// selfInfo is attached to outbound requests when we are a server so
// responders can learn about us.
func (d *DHT) selfInfo() []wire.PeerInfo {
	if d.Mode() != ModeServer {
		return nil
	}
	return []wire.PeerInfo{{ID: d.ident.ID, Addrs: d.sw.Addrs()}}
}

// nextSeq increments the local peer-record sequence number.
func (d *DHT) nextSeq() uint64 {
	d.seqMu.Lock()
	defer d.seqMu.Unlock()
	d.seq++
	return d.seq
}

// HandleMessage serves one inbound DHT RPC. The node's dispatcher calls
// it for DHT message types. Clients refuse to serve (§2.3: "DHT clients
// only request records or content but do not store or provide any").
func (d *DHT) HandleMessage(ctx context.Context, from peer.ID, req wire.Message) wire.Message {
	if d.Mode() != ModeServer {
		return wire.ErrorMessage("peer is a DHT client")
	}
	// Learn about the requester if it identified itself as a server.
	if len(req.Peers) > 0 && req.Peers[0].ID == from {
		d.table.Insert(from, kbucket.KeyForPeer(from))
		d.sw.Book().Add(from, req.Peers[0].Addrs)
	}

	switch req.Type {
	case wire.TPing:
		return wire.Message{Type: wire.TAck}

	case wire.TFindNode:
		return wire.Message{Type: wire.TNodes, Peers: d.closestInfos(req.Key)}

	case wire.TAddProvider:
		return AddProviders(d.providers, d.sw.Book(), d.src.Now(), req)

	case wire.TGetProviders:
		c, err := cid.FromBytes(req.Key)
		if err != nil {
			return wire.ErrorMessage("bad cid: %v", err)
		}
		closest := d.closestInfos(req.Key)
		return wire.Message{Type: wire.TProviders, Peers: closest, Providers: ProviderInfos(d.providers, d.sw.Book(), c)}

	case wire.TPutPeerRecord:
		if req.PeerRec == nil {
			return wire.ErrorMessage("no record supplied")
		}
		if err := d.peerRecs.Put(*req.PeerRec); err != nil {
			return wire.ErrorMessage("rejected: %v", err)
		}
		return wire.Message{Type: wire.TAck}

	case wire.TGetPeerRecord:
		rec, err := d.peerRecs.Get(peer.ID(req.Key))
		resp := wire.Message{Type: wire.TPeerRecordResp, Peers: d.closestInfos(req.Key)}
		if err == nil {
			resp.PeerRec = &rec
		}
		return resp

	case wire.TPutIPNS:
		if d.validator != nil {
			if err := d.validator(req.Key, req.IPNSData); err != nil {
				return wire.ErrorMessage("invalid ipns record: %v", err)
			}
		}
		d.ipnsMu.Lock()
		d.ipns[string(req.Key)] = append([]byte(nil), req.IPNSData...)
		d.ipnsMu.Unlock()
		return wire.Message{Type: wire.TAck}

	case wire.TGetIPNS:
		d.ipnsMu.RLock()
		data := d.ipns[string(req.Key)]
		d.ipnsMu.RUnlock()
		resp := wire.Message{Type: wire.TIPNSResp, Peers: d.closestInfos(req.Key)}
		if len(data) > 0 {
			resp.IPNSData = data
		}
		return resp

	case wire.TCrawl:
		// Measurement RPC: enumerate our k-buckets (§4.1).
		var infos []wire.PeerInfo
		for _, id := range d.table.AllPeers() {
			info := wire.PeerInfo{ID: id}
			if addrs, ok := d.sw.Book().Get(id); ok {
				info.Addrs = addrs
			}
			infos = append(infos, info)
		}
		return wire.Message{Type: wire.TNodes, Peers: infos}
	}
	return wire.ErrorMessage("unhandled dht message %s", req.Type)
}

// AddProviders serves an ADD_PROVIDER request against a provider-record
// store: every key the request carries gets a record for its first
// provider, published now, and the provider's addresses go into book.
// One RPC may carry a whole record batch (Key plus Keys) — the
// multi-record shape batched republish groups per target peer. It
// returns the ack, or the error reply to a malformed request. DHT
// servers and indexers both serve ADD_PROVIDER through it.
func AddProviders(store *record.ProviderStore, book *swarm.AddressBook, now time.Time, req wire.Message) wire.Message {
	if len(req.Providers) == 0 {
		return wire.ErrorMessage("no provider supplied")
	}
	prov := req.Providers[0]
	stored := 0
	for _, key := range req.AllKeys() {
		c, err := cid.FromBytes(key)
		if err != nil {
			return wire.ErrorMessage("bad cid: %v", err)
		}
		store.Add(record.ProviderRecord{Cid: c, Provider: prov.ID, Published: now})
		stored++
	}
	if stored == 0 {
		return wire.ErrorMessage("no record keys supplied")
	}
	if len(prov.Addrs) > 0 {
		book.Add(prov.ID, prov.Addrs)
	}
	return wire.Message{Type: wire.TAck}
}

// ProviderInfos is the provider list of a GET_PROVIDERS answer: c's
// providers "together with the peer's Multiaddress (if they have it)"
// (§3.2), the addresses read from book.
func ProviderInfos(store *record.ProviderStore, book *swarm.AddressBook, c cid.Cid) []wire.PeerInfo {
	var out []wire.PeerInfo
	for _, pr := range store.Get(c) {
		info := wire.PeerInfo{ID: pr.Provider}
		if addrs, ok := book.Get(pr.Provider); ok {
			info.Addrs = addrs
		}
		out = append(out, info)
	}
	return out
}

// closestInfos returns the k closest known peers to key, with
// addresses when the address book has them.
func (d *DHT) closestInfos(key []byte) []wire.PeerInfo {
	ids := d.table.NearestPeers(kbucket.KeyForBytes(key), d.cfg.K)
	infos := make([]wire.PeerInfo, 0, len(ids))
	for _, id := range ids {
		info := wire.PeerInfo{ID: id}
		if addrs, ok := d.sw.Book().Get(id); ok {
			info.Addrs = addrs
		}
		infos = append(infos, info)
	}
	return infos
}

// Bootstrap joins the network through the given peers, the join
// procedure of §2.2. It dials them concurrently, at most K at a time, so
// a join costs about its slowest dial and a dead seed one dial timeout
// beside the others; then it inserts the seeds that connected into the
// routing table and address book in seed order, and performs a
// self-lookup to populate the table.
func (d *DHT) Bootstrap(ctx context.Context, bootstrap []wire.PeerInfo) error {
	connected := make([]bool, len(bootstrap))
	var next atomic.Int64
	g := simtime.NewGroup(d.src)
	for w := 0; w < min(d.cfg.K, len(bootstrap)); w++ {
		g.Go(ctx, func(gctx context.Context) {
			for i := int(next.Add(1)) - 1; i < len(bootstrap); i = int(next.Add(1)) - 1 {
				_, _, err := d.sw.Connect(gctx, bootstrap[i].ID, bootstrap[i].Addrs)
				connected[i] = err == nil
			}
		})
	}
	g.Wait(ctx)
	for i, info := range bootstrap {
		if connected[i] {
			d.table.Insert(info.ID, kbucket.KeyForPeer(info.ID))
			d.sw.Book().Add(info.ID, info.Addrs)
		}
	}
	_, _, err := d.WalkClosest(ctx, kbucket.KeyForPeer(d.ident.ID), []byte(d.ident.ID))
	return err
}

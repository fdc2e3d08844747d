// Package swarm manages a peer's live connections: dialing with
// identity verification, connection reuse, the address book of up to
// 900 recently seen peers (§3.2), and the AutoNAT reachability check
// that decides whether a peer joins the DHT as a server or a client
// (§2.3).
package swarm

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"repro/internal/lru"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/transport"
	"repro/internal/wire"
)

// AddressBookCapacity is the paper's address-book bound: "each IPFS
// node maintains an address book of up to 900 recently seen peers".
const AddressBookCapacity = 900

// AddressBook is an LRU-bounded map from PeerID to known addresses: an
// lru.Cache of address lists, each counted as one entry. A stored
// address list is the book's own copy and immutable: Add replaces it
// with a fresh copy when the addresses change and never writes into it,
// so Get hands the stored slice out as it is. Callers must not modify
// what Get returns.
type AddressBook struct {
	peers *lru.Cache[[]multiaddr.Multiaddr]
}

// NewAddressBook creates a book bounded to capacity (<=0 selects 900).
func NewAddressBook(capacity int) *AddressBook {
	if capacity <= 0 {
		capacity = AddressBookCapacity
	}
	return &AddressBook{peers: lru.New[[]multiaddr.Multiaddr](int64(capacity))}
}

// Add records addresses for a peer, refreshing recency and evicting the
// least recently seen peer when full. Offering the addresses the book
// already holds — what every identified inbound RPC does — only
// refreshes recency; changed addresses replace the stored list.
func (b *AddressBook) Add(id peer.ID, addrs []multiaddr.Multiaddr) {
	if len(addrs) == 0 {
		return
	}
	if held, ok := b.peers.Get(string(id)); ok {
		if slices.Equal(held, addrs) {
			return
		}
		b.peers.Delete(string(id))
	}
	b.peers.Put(string(id), slices.Clone(addrs), 1)
}

// Get returns known addresses for id, refreshing recency. The §3.2
// optimization: "nodes check whether they already have an address for
// the PeerID they have discovered before performing any further
// lookups".
func (b *AddressBook) Get(id peer.ID) ([]multiaddr.Multiaddr, bool) {
	return b.peers.Get(string(id))
}

// Each calls fn for every peer in the book, most recently seen first,
// without refreshing recency; fn must not call back into the book.
func (b *AddressBook) Each(fn func(id peer.ID, addrs []multiaddr.Multiaddr)) {
	b.peers.Each(func(key string, addrs []multiaddr.Multiaddr) { fn(peer.ID(key), addrs) })
}

// Clear empties the book. The §4.3 experiments flush it between
// retrievals so every retrieval pays the full discovery cost.
func (b *AddressBook) Clear() { b.peers.Clear() }

// Len returns the number of peers in the book.
func (b *AddressBook) Len() int { return b.peers.Len() }

// Swarm multiplexes connections over a transport endpoint: one
// connection per peer. Over a Duplex endpoint (TCP) that connection
// carries requests both ways, so the swarm also adopts a connection the
// remote dialled, once it carries the remote's first request, and sends
// its own requests over it. When both ends dial each other, the
// connection dialled by the lower peer ID wins at both ends.
type Swarm struct {
	ident  peer.Identity
	ep     transport.Endpoint
	duplex bool // ep's connections carry requests both ways
	src    simtime.Source

	mu    sync.Mutex
	conns map[peer.ID]*link
	book  *AddressBook
}

// link is the swarm's connection to one peer.
type link struct {
	c       transport.Conn
	dialled bool // this node dialled c; otherwise the swarm adopted it
	// connected: Connect has returned this link, or the link it
	// replaced. Connected and ConnectedPeers list only these, so an
	// adopted connection joins the Bitswap broadcast set only once this
	// node connects to its peer itself.
	connected bool
}

// New creates a swarm over the endpoint. src is the node's one time
// source: the swarm's own dial measurement and timeouts run on it, and
// everything built on the swarm (DHT, Bitswap, routers, crawler) reads
// it back through Time. nil selects the wall clock.
func New(ident peer.Identity, ep transport.Endpoint, src simtime.Source) *Swarm {
	s := &Swarm{
		ident: ident,
		ep:    ep,
		src:   simtime.OrWall(src),
		conns: make(map[peer.ID]*link),
		book:  NewAddressBook(0),
	}
	if d, ok := ep.(transport.Duplex); ok {
		s.duplex = true
		d.Watch(s.adopt, s.gone)
	}
	return s
}

// Time returns the node's time source (never nil).
func (s *Swarm) Time() simtime.Source { return s.src }

// Local returns the local peer ID.
func (s *Swarm) Local() peer.ID { return s.ident.ID }

// Addrs returns the endpoint's listen addresses.
func (s *Swarm) Addrs() []multiaddr.Multiaddr { return s.ep.Addrs() }

// Book returns the address book.
func (s *Swarm) Book() *AddressBook { return s.book }

// Connected reports whether a live connection to id exists that this
// node has connected.
func (s *Swarm) Connected(id peer.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.conns[id]
	return ok && l.connected
}

// ConnectedPeers lists peers with live connections this node has
// connected — the neighbours Bitswap asks opportunistically (§3.2 step
// 4).
func (s *Swarm) ConnectedPeers() []peer.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]peer.ID, 0, len(s.conns))
	for id, l := range s.conns {
		if l.connected {
			out = append(out, id)
		}
	}
	return out
}

// Connect returns an existing connection to id or dials one, consulting
// the address book when addrs is empty. The returned duration is the
// dial+negotiate time (zero for reused connections), the denominator
// terms of the paper's stretch metric (Eq 2).
func (s *Swarm) Connect(ctx context.Context, id peer.ID, addrs []multiaddr.Multiaddr) (transport.Conn, time.Duration, error) {
	s.mu.Lock()
	if l, ok := s.conns[id]; ok {
		l.connected = true
		s.mu.Unlock()
		return l.c, 0, nil
	}
	s.mu.Unlock()

	if len(addrs) == 0 {
		if known, ok := s.book.Get(id); ok {
			addrs = known
		}
	}
	start := s.src.Stamp()
	c, err := s.ep.Dial(ctx, id, addrs)
	if err != nil {
		return nil, s.src.Since(start), err
	}
	dialDur := s.src.Since(start)
	s.book.Add(id, addrs)

	s.mu.Lock()
	existing, ok := s.conns[id]
	if ok && (existing.dialled || id < s.ident.ID) {
		// Another Connect dialled first, or the remote, the lower ID,
		// dialled too: close ours, which carried no request, so the
		// remote never adopted it.
		existing.connected = true
		s.mu.Unlock()
		c.Close()
		return existing.c, dialDur, nil
	}
	// Ours, from the lower ID, beats any the remote dialled: the remote
	// closes that one when our first request reaches it.
	s.conns[id] = &link{c: c, dialled: true, connected: true}
	s.mu.Unlock()
	return c, dialDur, nil
}

// adopt registers a verified connection the remote dialled, on its
// first request (the Duplex endpoint's hook).
func (s *Swarm) adopt(c transport.Conn) {
	id := c.RemotePeer()
	s.mu.Lock()
	old, ok := s.conns[id]
	if ok && old.dialled && s.ident.ID < id {
		// Ours, from the lower ID, wins; the remote closes c once our
		// first request on ours reaches it. Until then c serves.
		s.mu.Unlock()
		return
	}
	s.conns[id] = &link{c: c, connected: ok && old.connected}
	s.mu.Unlock()
	if ok {
		// The remote, the lower ID, dialled too, or it dialled again and
		// has dropped the old one. Request sends once more whatever
		// request the close cuts, at either end.
		old.c.Close()
	}
}

// gone forgets a connection whose reader has stopped (the Duplex
// endpoint's hook), so the next Connect redials.
func (s *Swarm) gone(c transport.Conn) {
	id := c.RemotePeer()
	s.mu.Lock()
	if l, ok := s.conns[id]; ok && l.c == c {
		delete(s.conns, id)
	}
	s.mu.Unlock()
}

// Request connects (or reuses) and performs one RPC. Over a Duplex
// endpoint, a request that fails because its connection closed under
// it (the remote disconnected, or a dial race closed the connection) is
// sent once more, on the connection Connect then finds or dials. This
// is the one protection for a request a close cuts.
func (s *Swarm) Request(ctx context.Context, id peer.ID, addrs []multiaddr.Multiaddr, req wire.Message) (wire.Message, error) {
	for retried := false; ; retried = true {
		c, _, err := s.Connect(ctx, id, addrs)
		if err != nil {
			return wire.Message{}, err
		}
		resp, err := c.Request(ctx, req)
		if err == nil {
			return resp, nil
		}
		// Drop the broken connection so future attempts redial.
		s.drop(id, c)
		if retried || !s.duplex || !errors.Is(err, transport.ErrClosed) {
			return wire.Message{}, err
		}
	}
}

// Disconnect closes and forgets the connection to id.
func (s *Swarm) Disconnect(id peer.ID) { s.drop(id, nil) }

// drop closes c and forgets it if it is still the connection registered
// for id; a nil c means whichever is registered. Sibling requests that
// fail on one shared connection all land here with the same c, so the
// replacement one of them has already redialled stays registered and
// open.
func (s *Swarm) drop(id peer.ID, c transport.Conn) {
	s.mu.Lock()
	l, ok := s.conns[id]
	if ok && (c == nil || l.c == c) {
		delete(s.conns, id)
		c = l.c
	}
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// DisconnectAll closes every connection, adopted ones too; the §4.3
// experiment does this between retrievals so Bitswap cannot shortcut
// the next lookup.
func (s *Swarm) DisconnectAll() {
	s.mu.Lock()
	conns := s.conns
	s.conns = make(map[peer.ID]*link)
	s.mu.Unlock()
	for _, l := range conns {
		l.c.Close()
	}
}

// Close shuts down the swarm and its endpoint.
func (s *Swarm) Close() error {
	s.DisconnectAll()
	return s.ep.Close()
}

// NATStatus is the outcome of an AutoNAT check.
type NATStatus int

// AutoNAT outcomes (§2.3).
const (
	// NATUnknown means not enough peers answered to decide.
	NATUnknown NATStatus = iota
	// NATPublic means more than three peers dialed us back: the peer
	// upgrades to DHT server.
	NATPublic
	// NATPrivate means dial-backs failed: the peer stays a DHT client.
	NATPrivate
)

// AutoNATThreshold is the §2.3 rule: "if more than three peers can
// connect to the newly joining peer, then the new peer upgrades its
// participation to act as a server node".
const AutoNATThreshold = 3

// CheckNAT runs the Autonat protocol against up to maxProbes already
// connected peers: each is asked to initiate a connection back to us.
func (s *Swarm) CheckNAT(ctx context.Context, maxProbes int) NATStatus {
	peers := s.ConnectedPeers()
	if maxProbes <= 0 {
		maxProbes = 2 * AutoNATThreshold
	}
	if len(peers) > maxProbes {
		peers = peers[:maxProbes]
	}
	successes, failures := 0, 0
	for _, id := range peers {
		resp, err := s.Request(ctx, id, nil, wire.Message{
			Type:  wire.TDialBack,
			Peers: []wire.PeerInfo{{ID: s.ident.ID, Addrs: s.Addrs()}},
		})
		switch {
		case err == nil && resp.Type == wire.TAck:
			successes++
		default:
			failures++
		}
		if successes > AutoNATThreshold {
			return NATPublic
		}
	}
	if successes > AutoNATThreshold {
		return NATPublic
	}
	if failures > AutoNATThreshold {
		return NATPrivate
	}
	if successes+failures == 0 {
		return NATUnknown
	}
	if successes > failures {
		return NATPublic
	}
	return NATPrivate
}

// HandleDialBack serves an inbound TDialBack request: try to dial the
// requestor back at the addresses it supplied.
func (s *Swarm) HandleDialBack(ctx context.Context, req wire.Message) wire.Message {
	if len(req.Peers) == 0 {
		return wire.ErrorMessage("dial-back: no addresses supplied")
	}
	target := req.Peers[0]
	// Use a fresh short-lived connection from a fresh path; reusing an
	// existing conn or NAT mapping would defeat the reachability test.
	dialCtx, cancel := s.src.WithTimeout(transport.WithFreshDial(ctx), 10*time.Second)
	defer cancel()
	c, err := s.ep.Dial(dialCtx, target.ID, target.Addrs)
	if err != nil {
		return wire.ErrorMessage("dial-back failed: %v", err)
	}
	c.Close()
	return wire.Message{Type: wire.TAck}
}

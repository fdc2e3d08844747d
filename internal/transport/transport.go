// Package transport defines the message-oriented transport abstraction
// shared by the in-process network simulator and the real TCP
// transport. Peers exchange request/response wire messages over
// connections whose remote identity is verified against the expected
// PeerID (§2.2).
package transport

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/wire"
)

// Handler serves inbound requests. It runs once per request and returns
// the response message.
type Handler func(ctx context.Context, from peer.ID, req wire.Message) wire.Message

// Conn is an established, identity-verified connection to a remote peer.
type Conn interface {
	// RemotePeer returns the verified identity of the other end.
	RemotePeer() peer.ID
	// Request performs one RPC. It fails once ctx's deadline passes.
	// The simulated transport also gives up when ctx is cancelled
	// earlier; TCP waits for the answer or the deadline, since an
	// abandoned answer would arrive with no request to take it.
	Request(ctx context.Context, req wire.Message) (wire.Message, error)
	// Close releases the connection.
	Close() error
}

// Endpoint is a peer's attachment to a network (simulated or TCP).
type Endpoint interface {
	// LocalPeer returns the local identity.
	LocalPeer() peer.ID
	// Addrs returns the listen multiaddresses other peers can dial.
	Addrs() []multiaddr.Multiaddr
	// SetHandler installs the inbound request handler. It must be called
	// before the endpoint serves traffic.
	SetHandler(Handler)
	// Dial connects to the peer expected to be target at one of addrs.
	// The connection fails if the remote identity does not match.
	Dial(ctx context.Context, target peer.ID, addrs []multiaddr.Multiaddr) (Conn, error)
	// Close shuts the endpoint down.
	Close() error
}

// Duplex is implemented by an endpoint whose connections carry
// requests both ways (TCP): once a handshake verifies, either end may
// send requests on the connection, whichever end dialled it. The swarm
// learns through it of the connections the remote dialled. The
// simulated endpoint does not implement it: there a connection carries
// its dialler's requests only.
type Duplex interface {
	// Watch installs the swarm's hooks. adopt runs when a connection
	// the remote dialled carries its first request: a connection that
	// never carries one, like an AutoNAT dial-back, is never adopted.
	// gone runs once for every connection, dialled or accepted, when
	// its reader stops: a close at either end.
	Watch(adopt, gone func(Conn))
	// Retire closes a connection this end dialled once this end's
	// request in flight on it, if any, has its answer. A request that
	// then finds it closed fails with ErrClosed, unsent.
	Retire(Conn)
}

// RPCCategory labels the network activity one request belongs to, for
// the simulator's network-wide RPC budget report. Callers that launch a
// whole tree of RPCs for one background duty (a republish cycle, a
// snapshot refresh crawl) attach the category to the context so every
// request underneath is attributed to that duty rather than to the
// foreground lookup traffic it would otherwise be mistaken for.
type RPCCategory string

// Budget categories. Untagged requests are classified by message type:
// Bitswap wants, provider-record stores, and routing queries map to
// CatWant, CatPublish and CatLookup respectively.
const (
	CatLookup    RPCCategory = "lookup"    // provider/peer lookups and session consults
	CatPublish   RPCCategory = "publish"   // first-time provider-record publication
	CatRepublish RPCCategory = "republish" // the 12 h record refresh cycle
	CatRefresh   RPCCategory = "refresh"   // snapshot / routing-table refresh crawls
	CatWant      RPCCategory = "want"      // Bitswap WANT-HAVE / WANT-BLOCK traffic
	CatGossip    RPCCategory = "gossip"    // inter-indexer anti-entropy replication
	CatOther     RPCCategory = "other"     // identify, NAT dial-backs, ping
)

// CategoryForType classifies an untagged request by message type:
// Bitswap wants, provider-record stores, routing queries, crawls and
// indexer gossip each map to their duty's category; the connection
// machinery (ping, identify, NAT dial-backs) stays CatOther. Both
// transports and the telemetry attribution tests share this single
// mapping, so a new message type that should not pollute CatOther has
// exactly one place to be added.
func CategoryForType(t wire.Type) RPCCategory {
	switch t {
	case wire.TWantHave, wire.TWantBlock:
		return CatWant
	case wire.TAddProvider:
		return CatPublish
	case wire.TFindNode, wire.TGetProviders, wire.TGetPeerRecord,
		wire.TPutPeerRecord, wire.TGetIPNS, wire.TPutIPNS:
		return CatLookup
	case wire.TCrawl:
		return CatRefresh
	case wire.TGossip:
		return CatGossip
	}
	return CatOther
}

// CategorizeRPC attributes one request: an explicit context tag wins
// (so a republish cycle's walk and store RPCs all land under
// "republish"), untagged requests classify by message type.
func CategorizeRPC(ctx context.Context, t wire.Type) RPCCategory {
	if cat := RPCCategoryOf(ctx); cat != "" {
		return cat
	}
	return CategoryForType(t)
}

// rpcCategoryKey carries an RPCCategory on the context.
type rpcCategoryKey struct{}

// WithRPCCategory tags the context so every RPC issued under it is
// attributed to cat in the simulator's budget report.
func WithRPCCategory(ctx context.Context, cat RPCCategory) context.Context {
	return context.WithValue(ctx, rpcCategoryKey{}, cat)
}

// RPCCategoryOf returns the category the context carries, or "" when
// untagged (the transport then classifies by message type).
func RPCCategoryOf(ctx context.Context) RPCCategory {
	v, _ := ctx.Value(rpcCategoryKey{}).(RPCCategory)
	return v
}

// Meter counts the requests one operation launches, by message type.
// An operation (a retrieval, a publication, a republish batch) opens
// one on its context and reads it once, when it ends. Each site that
// commits to a request counts it here, once, on the goroutine that
// launches it and before the request is spawned or sent, so a request
// still in flight when the operation ends is already counted, and no
// layer in between adds counts up by hand.
type Meter struct {
	n [wire.TAck]atomic.Int64 // by request type: every request type is below TAck, the first response
}

// meterKey carries a *Meter on the context.
type meterKey struct{}

// WithMeter opens a meter on ctx: requests launched under the returned
// context are counted into it.
func WithMeter(ctx context.Context) (context.Context, *Meter) {
	m := &Meter{}
	return context.WithValue(ctx, meterKey{}, m), m
}

// MeterOf returns the meter ctx carries, or nil when none is open. A
// nil meter counts nothing.
func MeterOf(ctx context.Context) *Meter {
	m, _ := ctx.Value(meterKey{}).(*Meter)
	return m
}

// Add counts n launched requests of type t.
func (m *Meter) Add(t wire.Type, n int) {
	if m != nil {
		m.n[t].Add(int64(n))
	}
}

// Count returns how many requests of the given types were launched.
func (m *Meter) Count(types ...wire.Type) int {
	total := 0
	for _, t := range types {
		total += int(m.n[t].Load())
	}
	return total
}

// freshDialKey marks dials that must not reuse NAT mappings.
type freshDialKey struct{}

// WithFreshDial marks the context so the dial behaves as if coming
// from a previously unseen address — AutoNAT dial-backs use it, since
// their purpose is to test general reachability rather than an
// existing NAT mapping (§2.3).
func WithFreshDial(ctx context.Context) context.Context {
	return context.WithValue(ctx, freshDialKey{}, true)
}

// IsFreshDial reports whether the context carries the fresh-dial mark.
func IsFreshDial(ctx context.Context) bool {
	v, _ := ctx.Value(freshDialKey{}).(bool)
	return v
}

// Common transport errors.
var (
	ErrPeerUnreachable  = errors.New("transport: peer unreachable")
	ErrDialTimeout      = errors.New("transport: dial timed out")
	ErrHandshakeTimeout = errors.New("transport: handshake timed out")
	ErrIdentityMismatch = errors.New("transport: remote identity mismatch")
	ErrClosed           = errors.New("transport: closed")
	// ErrMessageDropped reports a request lost to link faults (the
	// simulator's loss model): the caller waited out its loss-detection
	// timeout and no response arrived. Distinct from ErrPeerUnreachable —
	// the remote is alive, the link ate the message — so budget and
	// telemetry attribution can separate lossy links from dead peers.
	ErrMessageDropped = errors.New("transport: message dropped")
	// ErrPartitioned reports traffic that crossed a scheduled regional
	// partition: nothing is delivered in either direction until the
	// partition heals.
	ErrPartitioned = errors.New("transport: link partitioned")
)

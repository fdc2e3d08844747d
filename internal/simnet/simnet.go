// Package simnet is the in-process network simulator standing in for
// the live IPFS network and the AWS testbed of §4.3. Peers attach as
// endpoints with a geographic region; message latency follows the
// speed-of-light model of internal/geo plus jitter, processing delay
// and a bandwidth term for block transfers.
//
// Peer behaviour classes reproduce the pathologies the paper measures:
// dead routing-table entries that eat the 5 s dial timeout, and
// websocket-only peers whose handshakes hang for 45 s — the spike
// structure of Figure 9c. Every latency is a sleep on the network's
// simtime.Source: an event on the scheduler's queue in a simulated run.
package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/geo"
	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Class is a peer behaviour class.
type Class int

// Behaviour classes.
const (
	// Normal peers respond within RTT plus small processing jitter.
	Normal Class = iota
	// Slow peers respond, but each RPC takes seconds — the long
	// responses §6.1 attributes to "less responsive peers".
	Slow
	// DeadDial peers appear in routing tables but are gone: dials eat
	// the 5 s transport timeout (Fig 9c's spike at 5 s).
	DeadDial
	// WSBroken peers accept only websocket transports and their
	// handshake hangs until the 45 s timeout (Fig 9c's spike at 45 s).
	WSBroken
)

// Config tunes the simulator.
type Config struct {
	// Time is the simulator's time source, a simtime.Scheduler in every
	// simulated run: each dial handshake and RPC becomes a scheduled
	// delivery event — the requester parks on the queue and virtual
	// time jumps to the delivery instant. Nil is the wall clock, where
	// the latencies are slept out in real time.
	Time simtime.Source
	// Seed makes jitter and bandwidth assignment reproducible.
	Seed int64
	// DialTimeout is the simulated TCP/QUIC dial timeout (default 5 s).
	DialTimeout time.Duration
	// WSHandshakeTimeout is the simulated websocket handshake timeout
	// (default 45 s).
	WSHandshakeTimeout time.Duration
	// MeanBandwidth is the mean per-peer upload bandwidth in bytes per
	// simulated second (default 3 MiB/s).
	MeanBandwidth float64
	// Faults is the initial network-wide link-fault profile (loss
	// probability, extra latency, jitter). Adjustable mid-run via
	// Network.SetFaults / SetLinkFaults / Partition.
	Faults FaultProfile
	// DropTimeout is how long a requester waits before concluding a
	// message was lost to link faults — the simulated loss-detection /
	// retransmission timeout (default 5 s, matching the dial timeout).
	DropTimeout time.Duration
	// Retries is the number of automatic retransmits after a detected
	// drop before the request fails with ErrMessageDropped (default 0:
	// the loss surfaces immediately, callers own their retry policy).
	Retries int
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.WSHandshakeTimeout <= 0 {
		c.WSHandshakeTimeout = 45 * time.Second
	}
	if c.MeanBandwidth <= 0 {
		c.MeanBandwidth = 3 << 20
	}
	if c.DropTimeout <= 0 {
		c.DropTimeout = 5 * time.Second
	}
	c.Time = simtime.OrWall(c.Time)
	return c
}

// Network is a simulated network holding all attached endpoints.
type Network struct {
	cfg Config

	mu    sync.RWMutex
	nodes map[peer.ID]*node
	rngMu sync.Mutex
	rng   *rand.Rand // AddNode's bandwidth and address draws

	// Fault state: the network default profile, per-link overrides and
	// the current regional partition. Mutable mid-run (the scenario
	// engine schedules transitions as simtime events).
	faultMu    sync.RWMutex
	faults     FaultProfile
	linkFaults map[linkKey]FaultProfile
	partition  map[geo.Region]bool

	// Stats counters (atomic under mu for simplicity).
	statsMu      sync.Mutex
	requests     int64
	dials        int64
	failures     int64
	dropped      int64
	retried      int64
	byCategory   map[transport.RPCCategory]int64
	droppedByCat map[transport.RPCCategory]int64
}

type node struct {
	id       peer.ID
	region   geo.Region
	class    Class
	addr     multiaddr.Multiaddr
	bwBps    float64
	online   bool
	dialable bool

	mu      sync.RWMutex
	handler transport.Handler
	closed  bool
	// allowFrom holds peers whose dials succeed despite this node being
	// undialable: when a NAT'd node dials out, the NAT mapping lets the
	// remote end connect back. AutoNAT's dial-back (§2.3) is a fresh
	// dial, which the mapping does not admit.
	allowFrom map[peer.ID]bool
}

// New creates an empty simulated network.
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	return &Network{
		cfg:          cfg,
		nodes:        make(map[peer.ID]*node),
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		faults:       cfg.Faults,
		byCategory:   make(map[transport.RPCCategory]int64),
		droppedByCat: make(map[transport.RPCCategory]int64),
	}
}

// Time returns the simulator's time source.
func (n *Network) Time() simtime.Source { return n.cfg.Time }

// NodeOpts configures one attached peer.
type NodeOpts struct {
	Region   geo.Region
	Class    Class
	Dialable bool
	// BandwidthBps overrides the sampled upload bandwidth when > 0.
	BandwidthBps float64
}

// AddNode attaches a peer and returns its endpoint. The synthetic
// multiaddress encodes a unique simulated IP.
func (n *Network) AddNode(id peer.ID, opts NodeOpts) transport.Endpoint {
	n.rngMu.Lock()
	jbw := n.cfg.MeanBandwidth * (0.4 + 1.2*n.rng.Float64())
	ipA, ipB, ipC := 10+n.rng.Intn(200), n.rng.Intn(256), n.rng.Intn(256)
	n.rngMu.Unlock()
	if opts.BandwidthBps > 0 {
		jbw = opts.BandwidthBps
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	port := 4001
	addr := multiaddr.ForPeer(fmt.Sprintf("%d.%d.%d.%d", ipA, ipB, ipC, 1+len(n.nodes)%250), port, id.String())
	nd := &node{
		id:       id,
		region:   opts.Region,
		class:    opts.Class,
		addr:     addr,
		bwBps:    jbw,
		online:   true,
		dialable: opts.Dialable,
	}
	n.nodes[id] = nd
	return &endpoint{net: n, node: nd}
}

// SetOnline toggles a peer's liveness; offline peers fail all dials and
// in-flight requests. The churn scheduler drives this.
func (n *Network) SetOnline(id peer.ID, online bool) {
	n.mu.RLock()
	nd := n.nodes[id]
	n.mu.RUnlock()
	if nd != nil {
		nd.mu.Lock()
		nd.online = online
		nd.mu.Unlock()
	}
}

// Online reports a peer's current liveness.
func (n *Network) Online(id peer.ID) bool {
	n.mu.RLock()
	nd := n.nodes[id]
	n.mu.RUnlock()
	if nd == nil {
		return false
	}
	nd.mu.RLock()
	defer nd.mu.RUnlock()
	return nd.online
}

// BudgetCategories is the render order of the budget breakdown.
var BudgetCategories = []transport.RPCCategory{
	transport.CatLookup, transport.CatPublish, transport.CatRepublish,
	transport.CatRefresh, transport.CatWant, transport.CatGossip,
	transport.CatOther,
}

// Budget is the simulator's network-wide RPC budget: every request any
// peer carried, broken down by activity, so background traffic
// (republish cycles, refresh crawls) is visible next to the per-lookup
// accounting the experiments already report.
type Budget struct {
	Requests     int64 // all RPCs; always the sum over ByCategory
	Dials        int64
	DialFailures int64
	ByCategory   map[transport.RPCCategory]int64
	// Dropped counts requests lost to link faults or partitions (each
	// such request is also in Requests/ByCategory — the loss is a
	// failure mode, not extra traffic). Retried counts the automatic
	// retransmits the transport performed after detected drops.
	Dropped           int64
	Retried           int64
	DroppedByCategory map[transport.RPCCategory]int64
}

// Category returns one category's request count.
func (b Budget) Category(cat transport.RPCCategory) int64 { return b.ByCategory[cat] }

// DroppedCategory returns one category's fault-dropped request count.
func (b Budget) DroppedCategory(cat transport.RPCCategory) int64 {
	return b.DroppedByCategory[cat]
}

// Sub returns the budget spent since prev — the per-phase delta a
// scenario engine samples between workload phases.
func (b Budget) Sub(prev Budget) Budget {
	d := Budget{
		Requests:          b.Requests - prev.Requests,
		Dials:             b.Dials - prev.Dials,
		DialFailures:      b.DialFailures - prev.DialFailures,
		Dropped:           b.Dropped - prev.Dropped,
		Retried:           b.Retried - prev.Retried,
		ByCategory:        make(map[transport.RPCCategory]int64, len(b.ByCategory)),
		DroppedByCategory: make(map[transport.RPCCategory]int64, len(b.DroppedByCategory)),
	}
	for cat, v := range b.ByCategory {
		if delta := v - prev.ByCategory[cat]; delta != 0 {
			d.ByCategory[cat] = delta
		}
	}
	for cat, v := range b.DroppedByCategory {
		if delta := v - prev.DroppedByCategory[cat]; delta != 0 {
			d.DroppedByCategory[cat] = delta
		}
	}
	return d
}

// String renders the budget on one line, categories in fixed order.
func (b Budget) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d requests (", b.Requests)
	first := true
	for _, cat := range BudgetCategories {
		if b.ByCategory[cat] == 0 {
			continue
		}
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%s %d", cat, b.ByCategory[cat])
	}
	if first {
		sb.WriteString("none")
	}
	fmt.Fprintf(&sb, "), %d dials (%d failed)", b.Dials, b.DialFailures)
	// Fault counters render only when the run injected faults, so the
	// clean-network report is unchanged.
	if b.Dropped > 0 {
		fmt.Fprintf(&sb, ", %d dropped (", b.Dropped)
		first = true
		for _, cat := range BudgetCategories {
			if b.DroppedByCategory[cat] == 0 {
				continue
			}
			if !first {
				sb.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&sb, "%s %d", cat, b.DroppedByCategory[cat])
		}
		sb.WriteString(")")
	}
	if b.Retried > 0 {
		fmt.Fprintf(&sb, ", %d retried", b.Retried)
	}
	return sb.String()
}

// Budget returns a snapshot of the cumulative network-wide RPC budget.
func (n *Network) Budget() Budget {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	b := Budget{
		Requests:          n.requests,
		Dials:             n.dials,
		DialFailures:      n.failures,
		Dropped:           n.dropped,
		Retried:           n.retried,
		ByCategory:        make(map[transport.RPCCategory]int64, len(n.byCategory)),
		DroppedByCategory: make(map[transport.RPCCategory]int64, len(n.droppedByCat)),
	}
	for cat, v := range n.byCategory {
		b.ByCategory[cat] = v
	}
	for cat, v := range n.droppedByCat {
		b.DroppedByCategory[cat] = v
	}
	return b
}

func (n *Network) countRequest(cat transport.RPCCategory) {
	n.statsMu.Lock()
	n.requests++
	n.byCategory[cat]++
	n.statsMu.Unlock()
}

func (n *Network) countDial(failed bool) {
	n.statsMu.Lock()
	n.dials++
	if failed {
		n.failures++
	}
	n.statsMu.Unlock()
}

func (n *Network) countDropped(cat transport.RPCCategory) {
	n.statsMu.Lock()
	n.dropped++
	n.droppedByCat[cat]++
	n.statsMu.Unlock()
}

func (n *Network) countRetry() {
	n.statsMu.Lock()
	n.retried++
	n.statsMu.Unlock()
}

// jitter returns a jitter duration in [0, max) for one interaction
// between a and b: a hash of (seed, endpoints, kind, virtual instant).
// The value depends only on who talks to whom and when in *simulated*
// time, never on which goroutine reached a shared rng first, so seeded
// runs replay bit-for-bit.
func (n *Network) jitter(a, b peer.ID, kind string, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return hashDur(n.cfg.Seed, a, b, kind, n.cfg.Time.Now().UnixNano(), max)
}

// slowDelay samples the processing delay of a Slow peer: 2–20 s.
func (n *Network) slowDelay(a, b peer.ID) time.Duration {
	return 2*time.Second + n.jitter(a, b, "slow", 18*time.Second)
}

// hashDur derives a duration in [0, max) from an FNV-1a hash of the
// interaction key.
func hashDur(seed int64, a, b peer.ID, kind string, at int64, max time.Duration) time.Duration {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mixInt := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixInt(uint64(seed))
	mix(string(a))
	mix(string(b))
	mix(kind)
	mixInt(uint64(at))
	return time.Duration(h % uint64(max))
}

// endpoint implements transport.Endpoint on the simulator.
type endpoint struct {
	net  *Network
	node *node
}

func (e *endpoint) LocalPeer() peer.ID { return e.node.id }

func (e *endpoint) Addrs() []multiaddr.Multiaddr {
	return []multiaddr.Multiaddr{e.node.addr}
}

func (e *endpoint) SetHandler(h transport.Handler) {
	e.node.mu.Lock()
	e.node.handler = h
	e.node.mu.Unlock()
}

func (e *endpoint) Close() error {
	e.node.mu.Lock()
	e.node.closed = true
	e.node.online = false
	e.node.mu.Unlock()
	return nil
}

// Dial simulates connection establishment: two RTTs (transport + secure
// channel negotiation, the paper's Dial + Negotiate) on success, the
// class-specific timeout on failure.
func (e *endpoint) Dial(ctx context.Context, target peer.ID, addrs []multiaddr.Multiaddr) (transport.Conn, error) {
	src := e.net.cfg.Time
	e.net.mu.RLock()
	remote := e.net.nodes[target]
	e.net.mu.RUnlock()

	e.node.mu.RLock()
	selfClosed := e.node.closed
	e.node.mu.RUnlock()
	if selfClosed {
		return nil, transport.ErrClosed
	}

	if remote == nil {
		e.net.countDial(true)
		if err := src.Sleep(ctx, e.net.cfg.DialTimeout); err != nil {
			return nil, err
		}
		return nil, transport.ErrPeerUnreachable
	}

	// A regional partition cuts the link in both directions: the SYN is
	// never answered and the dial burns its full timeout.
	if e.net.partitioned(e.node.region, remote.region) {
		e.net.countDial(true)
		if err := src.Sleep(ctx, e.net.cfg.DialTimeout); err != nil {
			return nil, err
		}
		return nil, transport.ErrPartitioned
	}

	remote.mu.RLock()
	online, dialable, class := remote.online, remote.dialable, remote.class
	if !dialable && remote.allowFrom[e.node.id] && !transport.IsFreshDial(ctx) {
		dialable = true // NAT mapping held open by a prior outbound dial
	}
	remote.mu.RUnlock()

	switch {
	case class == WSBroken:
		e.net.countDial(true)
		if err := src.Sleep(ctx, e.net.cfg.WSHandshakeTimeout); err != nil {
			return nil, err
		}
		return nil, transport.ErrHandshakeTimeout
	case !online, !dialable, class == DeadDial:
		e.net.countDial(true)
		if err := src.Sleep(ctx, e.net.cfg.DialTimeout); err != nil {
			return nil, err
		}
		return nil, transport.ErrDialTimeout
	}

	rtt := geo.RTT(e.node.region, remote.region)
	handshake := 2*rtt + e.net.jitter(e.node.id, remote.id, "dial", rtt/4+time.Millisecond)
	// A faulty link taxes the handshake with its extra latency/jitter
	// (twice: the handshake is two round trips). Loss draws do not apply
	// to dials — the transport's own SYN retransmission absorbs them
	// within the handshake budget.
	if prof := e.net.linkProfile(e.node.region, remote.region); !prof.zero() {
		handshake += 2 * e.net.faultDelay(e.node.id, remote.id, prof)
	}
	if err := src.Sleep(ctx, handshake); err != nil {
		return nil, err
	}
	e.net.countDial(false)
	// Our outbound connection opens a NAT mapping: the remote may now
	// dial us back even if we are otherwise unreachable.
	e.node.mu.Lock()
	if e.node.allowFrom == nil {
		e.node.allowFrom = make(map[peer.ID]bool)
	}
	e.node.allowFrom[remote.id] = true
	e.node.mu.Unlock()
	return &conn{net: e.net, local: e.node, remote: remote, rtt: rtt}, nil
}

// conn is a live simulated connection.
type conn struct {
	net    *Network
	local  *node
	remote *node
	rtt    time.Duration

	mu     sync.Mutex
	closed bool
}

func (c *conn) RemotePeer() peer.ID { return c.remote.id }

func (c *conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return nil
}

// Request performs one RPC: the request travels half an RTT, the remote
// processes it (class-dependent), and the response travels back with a
// bandwidth term proportional to its size. Link faults intervene per
// transit: a partition eats the message outright, a lossy link drops
// the request or response leg with the profile's probability (each
// drop costs the caller one DropTimeout, optionally retransmitted
// Config.Retries times), and extra latency/jitter taxes every
// successful exchange.
func (c *conn) Request(ctx context.Context, req wire.Message) (wire.Message, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return wire.Message{}, transport.ErrClosed
	}
	src := c.net.cfg.Time
	cat := transport.CategorizeRPC(ctx, req.Type)
	c.net.countRequest(cat)

	// A partition between the two regions silently eats the message: no
	// retransmit helps until it heals, so the loss surfaces immediately
	// after one loss-detection wait.
	if c.net.partitioned(c.local.region, c.remote.region) {
		return wire.Message{}, c.drop(ctx, req, cat, 0, transport.ErrPartitioned)
	}

	c.remote.mu.RLock()
	online, handler, class := c.remote.online, c.remote.handler, c.remote.class
	c.remote.mu.RUnlock()
	if !online || handler == nil {
		// The peer vanished mid-connection: the request hangs until the
		// dial timeout. Deliberately NOT a fault drop — the link worked,
		// the peer is gone — so Budget.Dropped separates lossy links
		// from dead peers.
		if err := src.Sleep(ctx, c.net.cfg.DialTimeout); err != nil {
			telemetry.RPC(ctx, req.Type.String(), string(cat), c.remote.id, 0, err.Error())
			return wire.Message{}, err
		}
		telemetry.RPC(ctx, req.Type.String(), string(cat), c.remote.id, c.net.cfg.DialTimeout, transport.ErrPeerUnreachable.Error())
		return wire.Message{}, transport.ErrPeerUnreachable
	}

	prof := c.net.linkProfile(c.local.region, c.remote.region)
	for attempt := 0; ; attempt++ {
		// Request leg: lost before the handler ever sees it.
		if c.net.lossDraw(c.local.id, c.remote.id, "loss-req", prof.LossRate) {
			if err := c.drop(ctx, req, cat, attempt, transport.ErrMessageDropped); err != transport.ErrMessageDropped {
				return wire.Message{}, err // ctx cancelled mid-wait
			}
			if attempt < c.net.cfg.Retries {
				c.net.countRetry()
				continue
			}
			return wire.Message{}, transport.ErrMessageDropped
		}

		proc := c.net.jitter(c.local.id, c.remote.id, "proc", 5*time.Millisecond) + time.Millisecond
		if class == Slow {
			proc += c.net.slowDelay(c.local.id, c.remote.id)
		}

		resp := handler(ctx, c.local.id, req)

		// Response leg: the handler ran but the reply is lost — a
		// retransmit re-executes it (at-least-once, like real RPC
		// retries over UDP-style transports).
		if c.net.lossDraw(c.local.id, c.remote.id, "loss-resp", prof.LossRate) {
			if err := c.drop(ctx, req, cat, attempt, transport.ErrMessageDropped); err != transport.ErrMessageDropped {
				return wire.Message{}, err
			}
			if attempt < c.net.cfg.Retries {
				c.net.countRetry()
				continue
			}
			return wire.Message{}, transport.ErrMessageDropped
		}

		// One combined sleep covers the request leg, processing and the
		// response leg with its bandwidth term: one delivery event — the
		// requester parks and virtual time jumps to the delivery instant.
		transfer := time.Duration(float64(len(resp.BlockData)+256) / c.remote.bwBps * float64(time.Second))
		latency := c.rtt + proc + transfer + c.net.faultDelay(c.local.id, c.remote.id, prof)
		if err := src.Sleep(ctx, latency); err != nil {
			telemetry.RPC(ctx, req.Type.String(), string(cat), c.remote.id, 0, err.Error())
			return wire.Message{}, err
		}
		// The simulated latency is exact: the RTT, the processing delay,
		// the bandwidth term and the link's fault tax the single sleep
		// just charged.
		telemetry.RPC(ctx, req.Type.String(), string(cat), c.remote.id, latency, "")
		return resp, nil
	}
}

// drop charges one lost transit: it bumps the dropped budget counters,
// burns the loss-detection timeout in simulated time, records a
// telemetry "rpc-drop" event attributed to the request's category and
// attempt, and returns cause (or the context error if the caller gave
// up mid-wait — the drop is still counted: the message was lost either
// way).
func (c *conn) drop(ctx context.Context, req wire.Message, cat transport.RPCCategory, attempt int, cause error) error {
	c.net.countDropped(cat)
	wait := c.net.cfg.DropTimeout
	if err := c.net.cfg.Time.Sleep(ctx, wait); err != nil {
		telemetry.RPCDrop(ctx, req.Type.String(), string(cat), c.remote.id, 0, attempt, err.Error())
		return err
	}
	telemetry.RPCDrop(ctx, req.Type.String(), string(cat), c.remote.id, wait, attempt, cause.Error())
	return cause
}

// Package bitswap implements the chunk-exchange protocol of §3.2:
// requests travel as WANT-HAVE messages, holders answer HAVE (IHAVE),
// the requestor follows with WANT-BLOCK and the block terminates the
// exchange. Bitswap is also used opportunistically before any DHT
// lookup: the requestor asks already-connected peers for the CID and
// falls back to the DHT after a 1 s timeout — unless a session router
// (internal/routing) supplies known providers, in which case the
// WANT-HAVEs go to those candidates directly and the blind broadcast
// is skipped.
package bitswap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// DefaultOpportunisticTimeout is the §3.2 Bitswap broadcast timeout
// before falling back to the DHT.
const DefaultOpportunisticTimeout = time.Second

// DefaultSessionPeerTarget bounds how many routed candidates one
// session-peer consult asks for (matching the walk's α so targeted
// WANT-HAVE counts compare fairly with lookup RPC counts).
const DefaultSessionPeerTarget = 3

// SessionRouting is the session-facing slice of the routing.Router
// surface (internal/routing implementations satisfy it structurally):
// SessionPeers supplies candidate holders for a CID without a
// multi-hop walk, and WantBroadcast is the policy deciding whether the
// opportunistic broadcast still runs alongside routed candidates.
type SessionRouting interface {
	SessionPeers(ctx context.Context, c cid.Cid, n int) ([]wire.PeerInfo, int, error)
	WantBroadcast() bool
}

// Config tunes the protocol.
type Config struct {
	// OpportunisticTimeout bounds the ask-connected-peers phase.
	OpportunisticTimeout time.Duration
	// SessionPeerTarget bounds routed candidates per consult (default 3).
	SessionPeerTarget int
}

func (c Config) withDefaults() Config {
	if c.OpportunisticTimeout <= 0 {
		c.OpportunisticTimeout = DefaultOpportunisticTimeout
	}
	if c.SessionPeerTarget <= 0 {
		c.SessionPeerTarget = DefaultSessionPeerTarget
	}
	return c
}

// Bitswap serves and fetches blocks for one peer.
type Bitswap struct {
	cfg   Config
	sw    *swarm.Swarm
	src   simtime.Source // the swarm's: the ask waves run and are measured on it
	store block.Store

	mu       sync.Mutex
	wantlist map[string]struct{} // CID keys currently wanted

	routingMu sync.RWMutex
	routing   SessionRouting

	askMu sync.Mutex
	asks  map[string]*askFlight // CID key -> in-flight discovery

	statsMu        sync.Mutex
	blocksSent     int
	blocksRecv     int
	bytesSent      int64
	bytesRecv      int64
	havesServed    int
	wantHavesSent  int
	dupsSuppressed int
}

// Errors returned by this package.
var (
	ErrNotFound = errors.New("bitswap: peer does not have the block")
	ErrTimeout  = errors.New("bitswap: opportunistic discovery timed out")
)

// New creates a Bitswap engine over the swarm and blockstore, running
// on the swarm's time source.
func New(sw *swarm.Swarm, store block.Store, cfg Config) *Bitswap {
	return &Bitswap{
		cfg:      cfg.withDefaults(),
		sw:       sw,
		src:      sw.Time(),
		store:    store,
		wantlist: make(map[string]struct{}),
		asks:     make(map[string]*askFlight),
	}
}

// SessionPeerTarget reports how many candidate providers one session
// consult (or fail-over) asks for — callers sizing fail-over candidate
// pools match it.
func (b *Bitswap) SessionPeerTarget() int { return b.cfg.SessionPeerTarget }

// SetRouting installs the session router consulted by AskConnected and
// session fail-over. Passing nil restores the pure broadcast behaviour.
func (b *Bitswap) SetRouting(r SessionRouting) {
	b.routingMu.Lock()
	b.routing = r
	b.routingMu.Unlock()
}

func (b *Bitswap) sessionRouting() SessionRouting {
	b.routingMu.RLock()
	defer b.routingMu.RUnlock()
	return b.routing
}

// Wantlist returns the CID keys currently wanted, for diagnostics.
func (b *Bitswap) Wantlist() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.wantlist))
	for k := range b.wantlist {
		out = append(out, k)
	}
	return out
}

func (b *Bitswap) addWant(c cid.Cid) {
	b.mu.Lock()
	b.wantlist[c.Key()] = struct{}{}
	b.mu.Unlock()
}

func (b *Bitswap) dropWant(c cid.Cid) {
	b.mu.Lock()
	delete(b.wantlist, c.Key())
	b.mu.Unlock()
}

// Stats reports cumulative exchange counters.
func (b *Bitswap) Stats() (blocksSent, blocksRecv int, bytesSent, bytesRecv int64) {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return b.blocksSent, b.blocksRecv, b.bytesSent, b.bytesRecv
}

// MsgStats reports cumulative WANT-HAVE accounting: messages actually
// sent and the duplicate broadcast fan-out suppressed by the in-flight
// ask deduplication.
func (b *Bitswap) MsgStats() (wantHavesSent, dupsSuppressed int) {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return b.wantHavesSent, b.dupsSuppressed
}

func (b *Bitswap) countWantHaves(n int) {
	b.statsMu.Lock()
	b.wantHavesSent += n
	b.statsMu.Unlock()
}

// HandleMessage serves inbound Bitswap requests (the provider side of
// Figure 3 step 6).
func (b *Bitswap) HandleMessage(_ context.Context, _ peer.ID, req wire.Message) wire.Message {
	c, err := cid.FromBytes(req.Key)
	if err != nil {
		return wire.ErrorMessage("bitswap: bad cid: %v", err)
	}
	switch req.Type {
	case wire.TWantHave:
		if b.store.Has(c) {
			b.statsMu.Lock()
			b.havesServed++
			b.statsMu.Unlock()
			return wire.Message{Type: wire.THave, Key: req.Key}
		}
		return wire.Message{Type: wire.TDontHave, Key: req.Key}
	case wire.TWantBlock:
		blk, err := b.store.Get(c)
		if err != nil {
			return wire.Message{Type: wire.TDontHave, Key: req.Key}
		}
		b.statsMu.Lock()
		b.blocksSent++
		b.bytesSent += int64(blk.Size())
		b.statsMu.Unlock()
		return wire.Message{Type: wire.TBlock, Key: req.Key, BlockData: blk.Data()}
	}
	return wire.ErrorMessage("bitswap: unhandled %s", req.Type)
}

// AskStats instruments one session-peer discovery (AskConnected). Its
// duration — the full opportunistic timeout on a broadcast miss, the
// §6.2 "extra 1 s" — is the wall of the bitswap-ask span.
type AskStats struct {
	// Routed reports that the winning peer came from the session
	// router's candidates rather than the blind broadcast.
	Routed bool
	// Broadcast reports that the opportunistic broadcast ran.
	Broadcast bool
	// RoutingMsgs counts the routing RPCs the SessionPeers consult
	// issued (0 for the walk-based baseline, which declines for free).
	RoutingMsgs int
	// WantHaves counts WANT-HAVE messages this discovery sent.
	WantHaves int
	// Suppressed counts the duplicate broadcast fan-out this call
	// avoided by joining an in-flight ask for the same CID.
	Suppressed int
	// ConsultMiss reports that the session router was consulted and had
	// no candidates. Callers hand it forward (routing.WithSessionMiss)
	// so a follow-up FindProviders skips re-probing the same one-hop
	// neighbourhood.
	ConsultMiss bool
}

// askFlight is one in-flight AskConnected, shared by duplicate callers.
type askFlight struct {
	done      chan struct{}
	info      wire.PeerInfo
	st        AskStats
	err       error
	cancelled bool // the leader's caller cancelled mid-flight
}

// AskConnected discovers a session peer for c — step 4 of Figure 3,
// routed through the configured session router. Routed candidates get
// targeted WANT-HAVEs (skipping the blind broadcast when the router's
// policy says so); without candidates, or when they all turn out
// stale, the opportunistic broadcast to connected peers runs as
// deployed. Concurrent asks for the same CID join the in-flight
// discovery instead of broadcasting twice.
func (b *Bitswap) AskConnected(ctx context.Context, c cid.Cid) (wire.PeerInfo, AskStats, error) {
	key := c.Key()
	b.askMu.Lock()
	if fl, ok := b.asks[key]; ok {
		b.askMu.Unlock()
		return b.joinAsk(ctx, c, fl)
	}
	fl := &askFlight{done: make(chan struct{})}
	b.asks[key] = fl
	b.askMu.Unlock()

	fl.info, fl.st, fl.err = b.ask(ctx, c)
	fl.cancelled = fl.err != nil && ctx.Err() != nil
	b.askMu.Lock()
	delete(b.asks, key)
	b.askMu.Unlock()
	close(fl.done)
	return fl.info, fl.st, fl.err
}

// joinAsk waits on an in-flight discovery for the same CID instead of
// launching a duplicate. The wait is a bitswap-ask span of its own,
// annotated joined=true. The suppressed count is the fan-out the
// duplicate would have sent — what the leader actually sent, targeted
// or broadcast — so the accounting stays honest in routed setups.
func (b *Bitswap) joinAsk(ctx context.Context, c cid.Cid, fl *askFlight) (wire.PeerInfo, AskStats, error) {
	_, sp := telemetry.StartSpan(ctx, "bitswap-ask", telemetry.A("joined", "true"))
	err := simtime.AwaitClosed(ctx, b.src, fl.done)
	sp.End()
	if err != nil {
		return wire.PeerInfo{}, AskStats{}, err
	}
	if fl.cancelled && ctx.Err() == nil {
		// The leader's caller cancelled mid-flight; this caller is
		// still live, so rerun the discovery rather than inheriting
		// the cancellation.
		return b.AskConnected(ctx, c)
	}
	suppressed := fl.st.WantHaves
	if suppressed == 0 {
		suppressed = 1 // at minimum the duplicate ask itself
	}
	b.statsMu.Lock()
	b.dupsSuppressed += suppressed
	b.statsMu.Unlock()
	st := AskStats{
		Routed:      fl.st.Routed,
		Broadcast:   fl.st.Broadcast,
		Suppressed:  suppressed,
		ConsultMiss: fl.st.ConsultMiss,
	}
	return fl.info, st, fl.err
}

// ask runs one deduplicated session-peer discovery.
func (b *Bitswap) ask(ctx context.Context, c cid.Cid) (wire.PeerInfo, AskStats, error) {
	var st AskStats
	ctx, asp := telemetry.StartSpan(ctx, "bitswap-ask")
	defer func() {
		asp.Annotate("routed", fmt.Sprint(st.Routed))
		asp.Annotate("consult-miss", fmt.Sprint(st.ConsultMiss))
		asp.End()
	}()

	var routed []wire.PeerInfo
	broadcast := true
	if r := b.sessionRouting(); r != nil {
		peers, msgs, err := r.SessionPeers(ctx, c, b.cfg.SessionPeerTarget)
		st.RoutingMsgs = msgs
		if err == nil && len(peers) > 0 {
			routed = peers
			broadcast = r.WantBroadcast()
		} else {
			st.ConsultMiss = true
		}
	}

	info, asked, ok := b.askWave(ctx, c, routed, broadcast, nil, &st)
	if ok {
		return info, st, nil
	}
	// Routed candidates all stale and the broadcast was skipped: fail
	// open into the opportunistic broadcast before giving up, so a
	// router answering with dead (or zero) peers never makes retrieval
	// worse than the deployed behaviour. Peers the first wave already
	// asked are excluded — they answered once.
	if len(routed) > 0 && !broadcast {
		if info, _, ok := b.askWave(ctx, c, nil, true, asked, &st); ok {
			return info, st, nil
		}
	}
	return wire.PeerInfo{}, st, ErrTimeout
}

// askWave sends WANT-HAVE to the routed candidates plus (when broadcast
// is set) every connected peer, returning the first that answers HAVE
// along with the set of peers asked so far (for chaining a fallback
// wave without duplicate sends). A routed-candidates-only wave returns
// as soon as every target has answered; a broadcast miss waits out the
// full opportunistic timeout, preserving the deployed fallback
// semantics (§6.2).
func (b *Bitswap) askWave(ctx context.Context, c cid.Cid, routed []wire.PeerInfo, broadcast bool, seen map[peer.ID]bool, st *AskStats) (wire.PeerInfo, map[peer.ID]bool, bool) {
	targets := make([]wire.PeerInfo, 0, len(routed))
	if seen == nil {
		seen = make(map[peer.ID]bool, len(routed))
	}
	fromRouter := make(map[peer.ID]bool, len(routed))
	for _, pi := range routed {
		if pi.ID == b.sw.Local() || seen[pi.ID] {
			continue
		}
		seen[pi.ID] = true
		fromRouter[pi.ID] = true
		targets = append(targets, pi)
	}
	broadcastRan := false
	if broadcast {
		for _, id := range b.sw.ConnectedPeers() {
			if seen[id] {
				continue
			}
			seen[id] = true
			targets = append(targets, wire.PeerInfo{ID: id})
			broadcastRan = true
		}
		st.Broadcast = st.Broadcast || broadcastRan
	}
	if len(targets) == 0 {
		return wire.PeerInfo{}, seen, false
	}
	st.WantHaves += len(targets)
	b.countWantHaves(len(targets))

	// The wave is one trace phase; the per-target WANT-HAVE RPCs attach
	// as events through the derived contexts.
	wctx, wsp := telemetry.StartSpan(ctx, "want-wave",
		telemetry.A("targets", fmt.Sprint(len(targets))),
		telemetry.A("broadcast", fmt.Sprint(broadcastRan)))
	defer wsp.End()
	src := b.src
	actx, cancel := src.WithTimeout(wctx, b.cfg.OpportunisticTimeout)
	defer cancel()
	found := make(chan wire.PeerInfo, len(targets))
	g := simtime.NewGroup(src)
	for _, pi := range targets {
		pi := pi
		g.Go(actx, func(gctx context.Context) {
			resp, err := b.sw.Request(gctx, pi.ID, pi.Addrs, wire.Message{Type: wire.TWantHave, Key: c.Bytes()})
			if err == nil && resp.Type == wire.THave {
				found <- pi
			}
		})
	}

	win := func(pi wire.PeerInfo) (wire.PeerInfo, map[peer.ID]bool, bool) {
		st.Routed = fromRouter[pi.ID]
		wsp.Have(pi.ID, fromRouter[pi.ID])
		return pi, seen, true
	}
	// Wake on the first HAVE, on every target having answered, or on the
	// opportunistic timeout; a HAVE deposited right at the end is found
	// by the drain whichever of the three ended the wait.
	err := g.Await(actx, func() bool { return len(found) > 0 || g.Idle() })
	select {
	case pi := <-found:
		return win(pi)
	default:
	}
	if err == nil && broadcastRan && ctx.Err() == nil {
		// The deployed client has no all-answered signal: a broadcast
		// miss pays the full opportunistic timeout before the DHT
		// fallback (§3.2, §6.2).
		g.Await(actx, func() bool { return false })
	}
	return wire.PeerInfo{}, seen, false
}

// FetchBlock retrieves one block from a specific peer using the full
// WANT-HAVE / IHAVE / WANT-BLOCK / BLOCK exchange, verifies it against
// its CID and stores it locally.
func (b *Bitswap) FetchBlock(ctx context.Context, from wire.PeerInfo, c cid.Cid) (block.Block, error) {
	b.addWant(c)
	defer b.dropWant(c)

	if err := b.wantHave(ctx, from, c); err != nil {
		return block.Block{}, err
	}
	return b.fetchDirect(ctx, from, c)
}

// wantHave runs the WANT-HAVE handshake against one peer: ErrNotFound
// unless it answers HAVE. Shared by FetchBlock and session fetches so
// the protocol sequence and the message counting live in one place.
func (b *Bitswap) wantHave(ctx context.Context, from wire.PeerInfo, c cid.Cid) error {
	b.countWantHaves(1)
	resp, err := b.sw.Request(ctx, from.ID, from.Addrs, wire.Message{Type: wire.TWantHave, Key: c.Bytes()})
	if err != nil {
		return err
	}
	if resp.Type != wire.THave {
		return ErrNotFound
	}
	return nil
}

// fetchDirect sends WANT-BLOCK without the preceding WANT-HAVE, used
// for the remaining blocks of a DAG once the session is established.
func (b *Bitswap) fetchDirect(ctx context.Context, from wire.PeerInfo, c cid.Cid) (block.Block, error) {
	resp, err := b.sw.Request(ctx, from.ID, from.Addrs, wire.Message{Type: wire.TWantBlock, Key: c.Bytes()})
	if err != nil {
		return block.Block{}, err
	}
	if resp.Type != wire.TBlock {
		return block.Block{}, ErrNotFound
	}
	// The response's payload becomes the block as it is: NewWithCid
	// hashes it (the one hash a received block gets) and takes the
	// buffer over — on TCP the frame nobody else holds, on simnet the
	// provider's own immutable block bytes.
	blk, err := block.NewWithCid(c, resp.BlockData)
	if err != nil {
		// Self-certification (§2.1): data not matching the CID is
		// discarded, whoever served it.
		return block.Block{}, fmt.Errorf("bitswap: peer %s served corrupt block: %w", from.ID.Short(), err)
	}
	if err := b.store.Put(blk); err != nil {
		return block.Block{}, err
	}
	b.statsMu.Lock()
	b.blocksRecv++
	b.bytesRecv += int64(blk.Size())
	b.statsMu.Unlock()
	return blk, nil
}

// SessionStats counts one session's Bitswap message usage, the
// per-session accounting core.RetrieveResult surfaces next to the
// routing lookup messages.
type SessionStats struct {
	WantHaves   int // WANT-HAVE handshakes this session sent
	WantBlocks  int // WANT-BLOCK transfer messages
	RoutingMsgs int // routing RPCs spent discovering fail-over providers
	Failovers   int // provider switches after mid-session failures
}

// Session binds Bitswap to one providing peer and implements
// merkledag.Fetcher, so a whole DAG can be assembled from that peer
// while populating the local store (making this node a future provider,
// §3.1). When the bound provider fails mid-session — churn — the
// session consults the configured router for an alternate provider and
// fails over instead of aborting the DAG.
type Session struct {
	bs  *Bitswap
	ctx context.Context

	mu        sync.Mutex
	from      wire.PeerInfo
	anchor    cid.Cid // first-requested CID: the DAG root provider records point at
	anchorSet bool
	started   bool
	confirmed bool
	tried     map[peer.ID]bool
	stats     SessionStats
	// candidates supplies alternate providers discovered by the
	// streaming lookup (core.Retrieve drains the provider stream into
	// it while the fetch runs); fail-over tries them before spending
	// routing RPCs on a fresh consult.
	candidates func() []wire.PeerInfo

	foMu sync.Mutex // serializes fail-over provider switches
}

// NewSession creates a fetch session bound to the providing peer.
func (b *Bitswap) NewSession(ctx context.Context, from wire.PeerInfo) *Session {
	return &Session{bs: b, from: from, ctx: ctx, tried: make(map[peer.ID]bool)}
}

// Confirm records that the provider already answered HAVE during
// discovery (a routed or broadcast hit), so the session skips the
// redundant WANT-HAVE handshake and starts with WANT-BLOCK directly.
func (s *Session) Confirm() *Session {
	s.mu.Lock()
	s.confirmed = true
	s.mu.Unlock()
	return s
}

// WithCandidates installs a supplier of alternate providers — the
// fail-over candidates a streaming provider lookup keeps yielding
// after the first provider won. It is consulted at fail-over time (not
// copied), so candidates that arrive while the DAG fetch is already
// running still count.
func (s *Session) WithCandidates(fn func() []wire.PeerInfo) *Session {
	s.mu.Lock()
	s.candidates = fn
	s.mu.Unlock()
	return s
}

// ForRoot pins the session's fail-over anchor to the DAG root being
// assembled — the CID provider records exist for. Without it the
// anchor defaults to the first CID that misses the local store, which
// is a mid-DAG block when a partial earlier retrieval left the root
// cached.
func (s *Session) ForRoot(root cid.Cid) *Session {
	s.mu.Lock()
	s.anchor, s.anchorSet = root, true
	s.mu.Unlock()
	return s
}

// Stats returns the session's message accounting so far.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

func (s *Session) addStats(d SessionStats) {
	s.mu.Lock()
	s.stats.WantHaves += d.WantHaves
	s.stats.WantBlocks += d.WantBlocks
	s.stats.RoutingMsgs += d.RoutingMsgs
	s.stats.Failovers += d.Failovers
	s.mu.Unlock()
}

// Get implements merkledag.Fetcher under the session's own context:
// local store first, then the remote peer.
func (s *Session) Get(c cid.Cid) (block.Block, error) { return s.GetContext(s.ctx, c) }

// GetContext implements merkledag.ContextFetcher: Get with its network
// waits under ctx, the context of the goroutine the fetch runs on (one
// derived from the session's). The first remote fetch performs the
// WANT-HAVE handshake unless discovery already confirmed the provider;
// GetContext is safe for the concurrent sibling fetches of
// merkledag.AssembleConcurrentOn.
func (s *Session) GetContext(ctx context.Context, c cid.Cid) (block.Block, error) {
	if blk, err := s.bs.store.Get(c); err == nil {
		return blk, nil
	}
	s.bs.addWant(c)
	defer s.bs.dropWant(c)

	s.mu.Lock()
	if !s.anchorSet {
		s.anchor, s.anchorSet = c, true
	}
	from := s.from
	handshake := !s.started && !s.confirmed
	s.started = true
	s.mu.Unlock()

	blk, err := s.fetch(ctx, from, c, handshake)
	if err == nil {
		return blk, nil
	}
	return s.failover(ctx, c, from, err)
}

// fetch runs one block exchange against a specific provider, counting
// the session's messages.
func (s *Session) fetch(ctx context.Context, from wire.PeerInfo, c cid.Cid, handshake bool) (block.Block, error) {
	if handshake {
		s.addStats(SessionStats{WantHaves: 1})
		if err := s.bs.wantHave(ctx, from, c); err != nil {
			return block.Block{}, err
		}
	}
	s.addStats(SessionStats{WantBlocks: 1})
	return s.bs.fetchDirect(ctx, from, c)
}

// failover retries a block against an alternate provider after a
// mid-session failure (churn taking the bound provider offline is the
// common cause): first the fail-over candidates the streaming lookup
// already discovered — they cost zero extra RPCs — then a session
// router consult. Provider records exist for DAG roots, so alternates
// are looked up by the session's anchor CID rather than the failed
// block.
func (s *Session) failover(ctx context.Context, c cid.Cid, failed wire.PeerInfo, cause error) (block.Block, error) {
	if ctx.Err() != nil {
		return block.Block{}, cause
	}
	s.foMu.Lock()
	defer s.foMu.Unlock()
	fctx, fsp := telemetry.StartSpan(ctx, "session-failover",
		telemetry.A("failed", failed.ID.String()))
	defer fsp.End()

	s.mu.Lock()
	s.tried[failed.ID] = true
	cur := s.from
	anchor := s.anchor
	candFn := s.candidates
	s.mu.Unlock()
	// Another goroutine may have already switched providers; retry the
	// block against the new binding before spending routing RPCs.
	if cur.ID != failed.ID {
		if blk, err := s.fetch(fctx, cur, c, false); err == nil {
			return blk, nil
		}
		s.mu.Lock()
		s.tried[cur.ID] = true
		s.mu.Unlock()
	}

	// Streamed candidates first: providers the lookup yielded after the
	// winner, already paid for.
	if candFn != nil {
		if blk, err := s.tryAlternates(fctx, c, candFn()); err == nil {
			return blk, nil
		}
	}

	r := s.bs.sessionRouting()
	if r == nil {
		return block.Block{}, cause
	}
	peers, msgs, err := r.SessionPeers(fctx, anchor, s.bs.cfg.SessionPeerTarget)
	s.addStats(SessionStats{RoutingMsgs: msgs})
	if err != nil {
		return block.Block{}, cause
	}
	if blk, err := s.tryAlternates(fctx, c, peers); err == nil {
		return blk, nil
	}
	return block.Block{}, cause
}

// tryAlternates fetches c from the first not-yet-tried peer that
// serves it, rebinding the session on success.
func (s *Session) tryAlternates(ctx context.Context, c cid.Cid, peers []wire.PeerInfo) (block.Block, error) {
	for _, pi := range peers {
		s.mu.Lock()
		dup := s.tried[pi.ID]
		s.mu.Unlock()
		if dup || pi.ID == s.bs.sw.Local() {
			continue
		}
		blk, err := s.fetch(ctx, pi, c, true)
		if err != nil {
			s.mu.Lock()
			s.tried[pi.ID] = true
			s.mu.Unlock()
			continue
		}
		s.mu.Lock()
		s.from = pi
		s.stats.Failovers++
		s.mu.Unlock()
		return blk, nil
	}
	return block.Block{}, ErrNotFound
}

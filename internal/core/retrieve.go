package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/bitswap"
	"repro/internal/cid"
	"repro/internal/dht"
	"repro/internal/merkledag"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// RetrieveResult instruments one content retrieval with the phase
// breakdown of §3.2 / Figure 9d–f: opportunistic Bitswap, the provider
// lookup stream, connecting to the provider, and the content exchange.
// All durations are simulated time, read off the retrieval's span tree
// by retrievePhases.
type RetrieveResult struct {
	Cid   cid.Cid
	Bytes int

	Total         time.Duration
	BitswapPhase  time.Duration // opportunistic/routed ask for a session peer
	BitswapHit    bool          // content resolved by the blind broadcast
	RoutedSession bool          // session peer came from the router, broadcast skipped
	// ProviderWalk is the time retrieval blocked on the provider stream
	// for its first provider; the lookup keeps running in background.
	ProviderWalk time.Duration
	// FirstProvider is the time-to-first-provider (Bitswap hit or first
	// streamed batch), the §6.2 metric streaming discovery improves.
	FirstProvider time.Duration
	// LookupFull is the provider stream's full duration, background
	// draining included: what a blocking lookup would have waited.
	LookupFull time.Duration
	// StreamCandidates counts extra providers the stream yielded after
	// the first; they seed session fail-over without new routing RPCs.
	StreamCandidates int
	LookupMsgs       int           // routing RPCs across discovery, session consults, fail-over
	PeerWalk         time.Duration // second DHT walk (peer discovery)
	UsedBook         bool          // address book supplied the addresses
	Dial             time.Duration // peer routing: connect to the provider
	Fetch            time.Duration // content exchange (Bitswap transfer)

	// Per-session Bitswap message accounting, alongside LookupMsgs.
	WantHaves        int // WANT-HAVE messages sent (discovery + session handshakes)
	WantBlocks       int // WANT-BLOCK transfer messages
	SuppressedWants  int // duplicate broadcast fan-out suppressed by deduplication
	SessionFailovers int // provider switches the session made under churn

	Provider peer.ID
}

// Discover is the total lookup time retrieval blocked on: everything
// HTTP would not do.
func (r RetrieveResult) Discover() time.Duration {
	return r.BitswapPhase + r.ProviderWalk + r.PeerWalk
}

// Stretch is Eq (2): (Discover + Dial + Negotiate + Fetch) / (Dial +
// Negotiate + Fetch); Dial here includes transport and secure-channel
// negotiation.
func (r RetrieveResult) Stretch() float64 {
	den := (r.Dial + r.Fetch).Seconds()
	if den <= 0 {
		return 1
	}
	return (r.Discover().Seconds() + den) / den
}

// StretchWithoutBitswap removes the initial Bitswap timeout from the
// numerator, the Figure 10b variant.
func (r RetrieveResult) StretchWithoutBitswap() float64 {
	den := (r.Dial + r.Fetch).Seconds()
	if den <= 0 {
		return 1
	}
	return ((r.Discover() - r.BitswapPhase).Seconds() + den) / den
}

// ErrNotFound is returned when no provider could be located.
var ErrNotFound = errors.New("core: content not found")

// providerStream runs a router's provider stream on its own goroutine:
// the first discovered provider is delivered on first, later ones
// accumulate as session fail-over candidates, and the stream's message
// cost is collected once at Finish. Depositing the first provider and
// winding down each notify sig, which discovery waits on.
type providerStream struct {
	cancel context.CancelFunc
	src    simtime.Source
	sctx   context.Context // the stream's context; carries the starter's scheduler lease
	sig    *simtime.Signal
	first  chan wire.PeerInfo
	done   chan struct{}
	st     *routing.StreamInfo // set by the stream's goroutine; read once done is closed

	mu     sync.Mutex
	extras []wire.PeerInfo
}

// startProviderStream launches the streaming lookup for root, notifying
// sig of its first provider and of its wind-down. The stream stops
// itself after one session provider plus enough fail-over candidates
// (the Bitswap session peer target), or when Finish cancels it. The
// lookup is built by the goroutine that runs it: its waits park that
// goroutine's scheduler lease, not the starter's.
func (n *Node) startProviderStream(ctx context.Context, root cid.Cid, sig *simtime.Signal) *providerStream {
	sctx, cancel := n.src.WithCancel(ctx)
	ps := &providerStream{
		cancel: cancel,
		src:    n.src,
		sctx:   sctx,
		sig:    sig,
		first:  make(chan wire.PeerInfo, 1),
		done:   make(chan struct{}),
	}
	total := 1 + n.bswap.SessionPeerTarget() // the session provider plus fail-over candidates
	n.src.Go(sctx, func(gctx context.Context) {
		defer sig.Notify()
		defer close(ps.done)
		var seq routing.ProviderSeq
		seq, ps.st = n.router.FindProvidersStream(gctx, root)
		count := 0
		seq(func(batch []wire.PeerInfo) bool {
			for _, p := range batch {
				if count == 0 {
					ps.first <- p
					sig.Notify()
				} else {
					ps.mu.Lock()
					ps.extras = append(ps.extras, p)
					ps.mu.Unlock()
				}
				count++
			}
			return count < total
		})
	})
	return ps
}

// Candidates snapshots the fail-over candidates streamed so far. A
// first provider nobody consumed — the Bitswap ask won the discovery
// race before the stream yielded — is reclaimed as a candidate instead
// of being stranded in the hand-off buffer. Candidates is only called
// once discovery has returned, so draining the buffer here cannot race
// a discovery select.
func (ps *providerStream) Candidates() []wire.PeerInfo {
	select {
	case p := <-ps.first:
		ps.mu.Lock()
		ps.extras = append([]wire.PeerInfo{p}, ps.extras...)
		ps.mu.Unlock()
	default:
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]wire.PeerInfo(nil), ps.extras...)
}

// Finish cancels any remaining lookup work, waits for the stream to
// wind down, and returns its accumulated statistics. The join is
// instrumented under the scheduler (the cancelled stream unwinds on
// virtual time) via the stream context's lease, detached so the
// already-fallen cancellation cannot cut the join short.
func (ps *providerStream) Finish() routing.LookupInfo {
	ps.cancel()
	if simtime.AwaitClosed(simtime.Detach(ps.sctx), ps.src, ps.done) != nil {
		return routing.LookupInfo{} // the scheduler shut down under the stream
	}
	return ps.st.Info()
}

// lookupErr is the wound-down stream's terminal error; nil while the
// stream has not ended (a wait cut short by the scheduler shutting
// down).
func (ps *providerStream) lookupErr() error {
	if !ps.woundDown() {
		return nil
	}
	return ps.st.Err()
}

// woundDown reports, without blocking, whether the stream has ended.
func (ps *providerStream) woundDown() bool {
	select {
	case <-ps.done:
		return true
	default:
		return false
	}
}

// awaitFirst blocks until the stream hands over its first provider or
// winds down dry, returning ok=false in the latter case. A provider
// yielded right at stream end sits in the hand-off buffer, which the
// drain checks whichever of the two ended the wait. Cancellation reaches
// the stream through its own context and closes done, so the wait
// itself runs detached.
func (ps *providerStream) awaitFirst(ctx context.Context) (wire.PeerInfo, bool) {
	ps.sig.Wait(simtime.Detach(ctx), func() bool { return len(ps.first) > 0 || ps.woundDown() })
	select {
	case p := <-ps.first:
		return p, true
	default:
	}
	return wire.PeerInfo{}, false
}

// Retrieve fetches the content behind root from the network, following
// §3.2: (i) opportunistic Bitswap with a 1 s timeout, (ii) content
// discovery via the router's provider stream — the first provider goes
// straight to Bitswap while the stream keeps yielding fail-over
// candidates in the background — (iii) peer discovery via the address
// book or a second walk, (iv) peer routing (connect), and (v) content
// exchange over Bitswap.
func (n *Node) Retrieve(ctx context.Context, root cid.Cid) (data []byte, res RetrieveResult, err error) {
	res = RetrieveResult{Cid: root}
	ctx, trsp := n.tel.StartTrace(ctx, "retrieve",
		telemetry.A("cid", root.String()), telemetry.A("router", n.router.Name()))
	defer func() {
		trsp.Annotate("ok", fmt.Sprint(err == nil))
		trsp.Annotate("bytes", fmt.Sprint(res.Bytes))
		trsp.End()
		retrievePhases(trsp, &res)
		n.recordRetrieve(res, err)
	}()

	// Already local? Serve without network interaction.
	if data, err := merkledag.Assemble(n.store, root); err == nil {
		res.Bytes = len(data)
		trsp.Annotate("local", "true")
		return data, res, nil
	}

	// Content discovery (§3.2 steps i–ii): the routed/opportunistic
	// Bitswap ask plus the provider stream, as one trace phase.
	dctx, dsp := telemetry.StartSpan(ctx, "discover")
	provider, ps, err := n.discover(dctx, root, &res)
	dsp.Annotate("routed", fmt.Sprint(res.RoutedSession))
	dsp.Annotate("bitswap-hit", fmt.Sprint(res.BitswapHit))
	if n.cfg.ParallelDiscovery {
		dsp.Annotate("parallel", "true")
	}
	dsp.End()
	if ps != nil {
		// Whatever exit path the retrieval takes, the stream's cost is
		// collected as it ends: the lookup RPCs (background draining
		// included) and the candidate count.
		defer func() {
			res.LookupMsgs += routing.LookupMessages(ps.Finish())
			res.StreamCandidates = len(ps.Candidates())
		}()
	}
	if err != nil {
		return nil, res, err
	}
	res.Provider = provider.ID

	// Peer discovery + peer routing (§3.2 steps iii–iv): resolve the
	// first provider's addresses and connect to it, as one trace phase.
	fpctx, fpsp := telemetry.StartSpan(ctx, "first-provider")
	if fpsp != nil { // format the ID only for a trace that will show it
		fpsp.Annotate("provider", provider.ID.String())
	}

	// Peer discovery: map the PeerID to addresses via the address book
	// (§3.2's shortcut) or a second DHT walk.
	if len(provider.Addrs) == 0 && !n.sw.Connected(provider.ID) {
		if addrs, ok := n.sw.Book().Get(provider.ID); ok {
			provider.Addrs = addrs
			res.UsedBook = true
		} else {
			info, _, err := n.dht.FindPeer(fpctx, provider.ID)
			if err != nil {
				fpsp.End()
				return nil, res, fmt.Errorf("%w: provider %s unresolvable: %v", ErrNotFound, provider.ID.Short(), err)
			}
			provider.Addrs = info.Addrs
		}
	}
	fpsp.Annotate("book", fmt.Sprint(res.UsedBook))

	// Peer routing: connect to the provider.
	if _, _, err := n.sw.Connect(fpctx, provider.ID, provider.Addrs); err != nil {
		fpsp.End()
		return nil, res, fmt.Errorf("%w: cannot connect to provider: %v", ErrNotFound, err)
	}
	fpsp.End()

	// Content exchange: fetch and verify the DAG via Bitswap, with
	// sibling blocks requested concurrently as real sessions do. A
	// provider that already answered HAVE during discovery skips the
	// redundant handshake; a provider failing mid-session is replaced
	// first from the stream's fail-over candidates (already paid for),
	// then through the router.
	fctx, fsp := telemetry.StartSpan(ctx, "fetch")
	session := n.bswap.NewSession(fctx, provider).ForRoot(root)
	if ps != nil {
		session.WithCandidates(ps.Candidates)
	}
	if res.BitswapHit || res.RoutedSession {
		session.Confirm()
	}
	data, err = merkledag.AssembleConcurrentOn(fctx, n.src, session, root, 8)
	ss := session.Stats()
	res.WantHaves += ss.WantHaves
	res.WantBlocks += ss.WantBlocks
	res.LookupMsgs += ss.RoutingMsgs
	res.SessionFailovers += ss.Failovers
	fsp.Annotate("blocks", fmt.Sprint(ss.WantBlocks))
	fsp.Annotate("failovers", fmt.Sprint(ss.Failovers))
	fsp.End()
	if err != nil {
		return nil, res, fmt.Errorf("%w: fetch failed: %v", ErrNotFound, err)
	}
	res.Bytes = len(data)
	return data, res, nil
}

// recordRetrieve folds one retrieval's instrumentation into the node's
// metrics registry: per-router counters, the §6.2 latency histograms
// and the walk/stream message accounting.
func (n *Node) recordRetrieve(res RetrieveResult, err error) {
	reg := n.tel.Registry()
	router := n.router.Name()
	reg.Counter("retrieves_total", "router", router).Inc()
	if err != nil {
		reg.Counter("retrieve_failures", "router", router).Inc()
	}
	if res.RoutedSession {
		reg.Counter("routed_sessions", "router", router).Inc()
	}
	reg.Counter("want_haves").Add(float64(res.WantHaves))
	reg.Counter("suppressed_wants").Add(float64(res.SuppressedWants))
	reg.Counter("stream_candidates_drained").Add(float64(res.StreamCandidates))
	reg.Counter("session_failovers").Add(float64(res.SessionFailovers))
	reg.Histogram("retrieve_seconds", 0.25, "router", router).ObserveDuration(res.Total)
	reg.Histogram("discover_seconds", 0.25, "router", router).ObserveDuration(res.Discover())
	reg.Histogram("lookup_msgs", 5, "router", router).Observe(float64(res.LookupMsgs))
}

// discover locates a provider for root: the session-routed (or
// opportunistic) Bitswap phase, then (or in parallel, when configured)
// the router's streaming provider lookup. The returned providerStream,
// when non-nil, is still draining fail-over candidates; the caller
// collects its cost via Finish.
func (n *Node) discover(ctx context.Context, root cid.Cid, res *RetrieveResult) (wire.PeerInfo, *providerStream, error) {
	if n.cfg.ParallelDiscovery {
		return n.discoverParallel(ctx, root, res)
	}

	// Serial (deployed) behaviour: the Bitswap ask first — targeted at
	// router-known providers when the router has them, the blind
	// broadcast otherwise — then the provider stream after its timeout.
	info, ask, err := n.bswap.AskConnected(ctx, root)
	res.WantHaves += ask.WantHaves
	res.SuppressedWants += ask.Suppressed
	res.LookupMsgs += ask.RoutingMsgs
	if err == nil {
		res.BitswapHit = !ask.Routed
		res.RoutedSession = ask.Routed
		return info, nil, nil
	}

	// Consult-result handoff: a session-consult miss above already
	// probed the snapshot/indexer neighbourhood, so the provider stream
	// skips the duplicate one-hop wave and goes straight to its walk
	// fallback.
	fctx := ctx
	if ask.ConsultMiss {
		fctx = routing.WithSessionMiss(ctx, root)
	}
	ps := n.startProviderStream(fctx, root, simtime.NewSignal(n.src))
	p, ok := ps.awaitFirst(ctx)
	if ok {
		// First provider in hand: Bitswap starts now, the stream keeps
		// draining fail-over candidates in the background.
		return p, ps, nil
	}
	return wire.PeerInfo{}, ps, wrapDiscoveryErr(ps.lookupErr(), root)
}

// wrapDiscoveryErr maps an exhausted-lookup error to ErrNotFound.
func wrapDiscoveryErr(err error, root cid.Cid) error {
	if err == nil {
		err = routing.ErrNoProviders
	}
	if errors.Is(err, dht.ErrNoProviders) || errors.Is(err, bitswap.ErrTimeout) {
		return fmt.Errorf("%w: no provider records for %s: %v", ErrNotFound, root, err)
	}
	return err
}

// discoverParallel races the Bitswap ask against the provider stream —
// the §6.2 optimization trading extra requests for latency. Whichever
// loses is cancelled and its RPCs are charged (the ask's here, the
// stream's at Finish).
func (n *Node) discoverParallel(ctx context.Context, root cid.Cid, res *RetrieveResult) (wire.PeerInfo, *providerStream, error) {
	src := n.src
	actx, acancel := src.WithCancel(ctx)
	defer acancel()
	type askOutcome struct {
		info wire.PeerInfo
		ask  bitswap.AskStats
		err  error
	}
	askCh := make(chan askOutcome, 1)
	sig := simtime.NewSignal(src)
	src.Go(actx, func(gctx context.Context) {
		info, ask, err := n.bswap.AskConnected(gctx, root)
		askCh <- askOutcome{info: info, ask: ask, err: err}
		sig.Notify()
	})
	ps := n.startProviderStream(ctx, root, sig)

	chargeAsk := func(o askOutcome) {
		res.WantHaves += o.ask.WantHaves
		res.SuppressedWants += o.ask.Suppressed
		res.LookupMsgs += o.ask.RoutingMsgs
	}
	var firstErr error
	askDone, streamDone := false, false
	streamWin := func(p wire.PeerInfo) (wire.PeerInfo, *providerStream, error) {
		acancel()
		if !askDone {
			// Drain the cancelled ask and charge its RPCs. It deposits
			// into the buffered channel unconditionally, so the drain
			// runs detached from the just-fallen context.
			if o, ok := simtime.Recv(simtime.Detach(ctx), src, askCh); ok {
				chargeAsk(o)
			}
		}
		return p, ps, nil
	}
	askWon := func(o askOutcome) (wire.PeerInfo, *providerStream, error) {
		res.BitswapHit = !o.ask.Routed
		res.RoutedSession = o.ask.Routed
		// The stream lost the race but keeps feeding fail-over
		// candidates while the fetch runs; its RPCs are charged at
		// Finish.
		return o.info, ps, nil
	}
	// Merge the two racers: park until the ask outcome, the stream's
	// first provider, or the stream's wind-down is available, then handle
	// whatever arrived. Both racers observe ctx themselves, so the park
	// runs detached.
	for !askDone || !streamDone {
		if err := sig.Wait(simtime.Detach(ctx), func() bool {
			return (!askDone && len(askCh) > 0) || len(ps.first) > 0 || (!streamDone && ps.woundDown())
		}); err != nil {
			break // scheduler shut down underneath us
		}
		select {
		case p := <-ps.first:
			return streamWin(p)
		default:
		}
		if !askDone && len(askCh) > 0 {
			o := <-askCh
			askDone = true
			chargeAsk(o)
			if o.err == nil {
				return askWon(o)
			}
			if firstErr == nil {
				firstErr = o.err
			}
		}
		if !streamDone && ps.woundDown() {
			select {
			case p := <-ps.first:
				return streamWin(p)
			default:
			}
			streamDone = true
			if err := ps.lookupErr(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return wire.PeerInfo{}, ps, wrapDiscoveryErr(firstErr, root)
}

package routing

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cid"
	"repro/internal/dht"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// oneHop is the body the one-hop routers share. Each knows, per key,
// the peers its record belongs on — the snapshot's K closest, or the
// owning shard's replicas — and stores there in one hop, falling back
// to the walk when no target acks, and asks there in one hop, falling
// back to the walk when no target knows a provider. A router embedding
// it adds only its targets and how wide its lookup waves are.
type oneHop struct {
	kind     Kind
	sw       *swarm.Swarm
	src      simtime.Source // the swarm's
	timeout  time.Duration  // bounds one direct RPC
	fallback Router         // nil disables fallback (tests); usually a DHTRouter
	ledger   *Ledger
}

func newOneHop(kind Kind, sw *swarm.Swarm, timeout time.Duration, fallback Router) oneHop {
	src := sw.Time()
	return oneHop{kind: kind, sw: sw, src: src, timeout: timeout, fallback: fallback, ledger: NewLedger(src.Now)}
}

// Name implements Router.
func (h *oneHop) Name() string { return string(h.kind) }

// Ledger exposes the republish ack ledger.
func (h *oneHop) Ledger() *Ledger { return h.ledger }

// WantBroadcast implements Router: a one-hop router names the record
// holders directly, so the opportunistic broadcast is skipped.
func (h *oneHop) WantBroadcast() bool { return false }

// provide stores c's provider record on targets, one store-batch and no
// walk. With no targets the fallback publishes instead. When every
// store fails (a fully stale neighbourhood, every replica offline) the
// fallback retries, with the wasted direct stores added to its store
// attempts, so the record is never lost.
func (h *oneHop) provide(ctx context.Context, c cid.Cid, targets []wire.PeerInfo) (ProvideResult, error) {
	if len(targets) == 0 {
		if h.fallback != nil {
			return h.fallback.Provide(ctx, c)
		}
		return ProvideResult{}, fmt.Errorf("routing: %s provide %s: no targets", h.kind, c)
	}
	req := wire.Message{
		Type:      wire.TAddProvider,
		Key:       c.Bytes(),
		Providers: []wire.PeerInfo{{ID: h.sw.Local(), Addrs: h.sw.Addrs()}},
	}
	res := ProvideResult{StoreTargets: targets, StoreAttempts: len(targets)}
	res.AckedTargets = dht.StoreBatch(ctx, h.sw, h.timeout, targets, req)
	res.StoreOK = len(res.AckedTargets)
	for _, t := range res.AckedTargets {
		h.ledger.Confirm(t, c.Key())
	}
	if res.StoreOK > 0 {
		return res, nil
	}
	err := fmt.Errorf("routing: %s provide %s: all %d direct stores failed", h.kind, c, res.StoreAttempts)
	if h.fallback == nil || ctx.Err() != nil {
		return res, err
	}
	fres, err := h.fallback.Provide(ctx, c)
	fres.StoreAttempts += res.StoreAttempts
	return fres, err
}

// provideMany batches cids against targetsOf — one multi-record RPC per
// distinct target, ack-ledger skips — and retries through the fallback
// the CIDs no target accepted, merging the fallback's result and adding
// its successes to the provided count. known reports whether the
// router has any target at all; without one the fallback takes the
// whole batch.
func (h *oneHop) provideMany(ctx context.Context, cids []cid.Cid, known bool, targetsOf func(cid.Cid) []wire.PeerInfo) (ProvideManyResult, error) {
	if !known {
		if h.fallback != nil {
			return h.fallback.ProvideMany(ctx, cids)
		}
		return ProvideManyResult{CIDs: len(cids)}, fmt.Errorf("routing: %s provide batch of %d: no targets", h.kind, len(cids))
	}
	res, provided := provideManyGrouped(ctx, h.sw, h.src, h.timeout, h.ledger, cids, targetsOf)
	failed := unprovided(cids, provided)
	if len(failed) == 0 {
		return res, nil
	}
	if h.fallback == nil || ctx.Err() != nil {
		if res.Provided == 0 && res.CIDs > 0 {
			err := ctx.Err()
			if err == nil {
				err = fmt.Errorf("routing: provide batch of %d: no records stored", res.CIDs)
			}
			return res, err
		}
		return res, nil
	}
	fres, err := h.fallback.ProvideMany(ctx, failed)
	res = res.merge(fres)
	res.Provided += fres.Provided
	if res.Provided == 0 && res.CIDs > 0 && err != nil {
		return res, err
	}
	return res, nil
}

// ask is the one-hop GET_PROVIDERS lookup, run under a span named
// span. It asks targets in order, in waves: the first target alone,
// then the next widen targets at a time, asked concurrently. A
// wave is cancelled at its first answer that carries providers, then
// drained, so the span's answered and failed counts cover every
// member (one cut short counts as failed); the providers its answers
// brought that no earlier answer did are yielded, one answer at a
// time in arrival order, until yield returns false. A wave without
// providers moves on to the next. A lookup that never widens asks one
// peer at a time, inline; a widening one spawns every wave, its first
// included.
func (h *oneHop) ask(ctx context.Context, span string, c cid.Cid, targets []wire.PeerInfo, widen int, yield func([]wire.PeerInfo) bool) {
	queried, failed := 0, 0
	ctx, sp := telemetry.StartSpan(ctx, span)
	defer func() {
		sp.Annotate("queried", strconv.Itoa(queried))
		sp.Annotate("failed", strconv.Itoa(failed))
		sp.End()
	}()
	req := wire.Message{Type: wire.TGetProviders, Key: c.Bytes()}
	seen := make(map[peer.ID]bool)
	size := 1
	for len(targets) > 0 && ctx.Err() == nil {
		wave := targets[:min(size, len(targets))]
		targets = targets[len(wave):]
		size = widen
		var answers [][]wire.PeerInfo
		h.askWave(ctx, wave, req, widen == 1, func(resp wire.Message, err error) bool {
			if err != nil || resp.Type != wire.TProviders {
				failed++
				return true
			}
			queried++
			answers = append(answers, resp.Providers)
			return len(resp.Providers) == 0
		})
		for _, providers := range answers {
			if batch := dedupProviders(seen, fillAddrs(h.sw, providers)); len(batch) > 0 && !yield(batch) {
				return
			}
		}
	}
}

// askWave sends req to every peer of wave, counting each request into
// the operation's meter as it launches, and hands each answer to
// onAnswer in arrival order. Once onAnswer returns false the rest of
// the wave is cancelled; their answers — mostly the cancellation's
// errors — are still handed over. inline asks the peers one after
// another on the calling goroutine instead, never starting the rest.
func (h *oneHop) askWave(ctx context.Context, wave []wire.PeerInfo, req wire.Message, inline bool, onAnswer func(wire.Message, error) bool) {
	request := func(ctx context.Context, pi wire.PeerInfo) (wire.Message, error) {
		rctx, cancel := h.src.WithTimeout(ctx, h.timeout)
		defer cancel()
		return h.sw.Request(rctx, pi.ID, pi.Addrs, req)
	}
	meter := transport.MeterOf(ctx)
	if inline {
		for _, pi := range wave {
			meter.Add(req.Type, 1)
			if !onAnswer(request(ctx, pi)) {
				return
			}
		}
		return
	}
	type answer struct {
		resp wire.Message
		err  error
	}
	meter.Add(req.Type, len(wave))
	ch := make(chan answer, len(wave))
	wctx, cancel := h.src.WithCancel(ctx)
	defer cancel()
	for _, pi := range wave {
		h.src.Go(wctx, func(gctx context.Context) {
			resp, err := request(gctx, pi)
			ch <- answer{resp, err}
		})
	}
	// Every member deposits exactly once (the channel is buffered to the
	// wave), so the drain runs detached from ctx: cancelled members
	// unwind fast and every answer is handed over.
	for range wave {
		a, ok := simtime.Recv(simtime.Detach(ctx), h.src, ch)
		if !ok {
			return
		}
		if !onAnswer(a.resp, a.err) {
			cancel()
		}
	}
}

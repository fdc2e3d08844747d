package dht

import (
	"context"
	"sort"
	"strconv"

	"repro/internal/kbucket"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// WalkInfo counts one DHT walk's queries (§3.2: "multi-round iterative
// lookups"); its duration is the wall of its dht-walk span.
type WalkInfo struct {
	Queried  int // peers successfully queried
	Failed   int // peers that timed out or refused
	Launched int // RPCs issued, including ones abandoned at early stop
}

type candState int

const (
	stateCandidate candState = iota
	stateInflight
	stateDone
	stateFailed
)

// candidate is a peer a walk has heard of. dist is its XOR distance to
// the walk's target, computed once when addCandidate admits it: every
// ranking the walk does afterwards compares stored distances and never
// hashes.
type candidate struct {
	info  wire.PeerInfo
	dist  kbucket.Key
	state candState
	depth int
}

type queryResult struct {
	id   peer.ID
	resp wire.Message
	err  error
}

// maxWalkQueries caps runaway walks.
const maxWalkQueries = 128

// walk runs the iterative α-parallel lookup toward target. mkReq builds
// the RPC to send; stop inspects each successful response and returns
// true to terminate early (e.g. a provider record was found, §3.2). It
// returns the k closest candidates seen — including unresponsive ones,
// which is what makes the publication RPC batch hit dial timeouts
// (Fig 9c) — the stopping response if any, and walk statistics.
func (d *DHT) walk(ctx context.Context, target kbucket.Key, mkReq func() wire.Message, stop func(wire.Message) bool) ([]wire.PeerInfo, *wire.Message, WalkInfo) {
	// The walk is one trace phase: query RPCs attach as events via the
	// derived contexts, and every completed query adds a "hop" event.
	ctx, wsp := telemetry.StartSpan(ctx, "dht-walk")
	src := d.src
	cands := make(map[peer.ID]*candidate)

	addCandidate := func(info wire.PeerInfo, depth int) {
		if info.ID == d.ident.ID {
			return
		}
		if c, ok := cands[info.ID]; ok {
			if len(info.Addrs) > 0 && len(c.info.Addrs) == 0 {
				c.info.Addrs = info.Addrs
			}
			return
		}
		cands[info.ID] = &candidate{info: info, dist: kbucket.XOR(kbucket.KeyForPeer(info.ID), target), depth: depth}
	}

	// Seed with the k closest peers from our own routing table.
	for _, id := range d.table.NearestPeers(target, d.cfg.K) {
		info := wire.PeerInfo{ID: id}
		if addrs, ok := d.sw.Book().Get(id); ok {
			info.Addrs = addrs
		}
		addCandidate(info, 0)
	}

	// closestUnqueried returns the unqueried candidate nearest target.
	closestUnqueried := func() *candidate {
		var best *candidate
		for _, c := range cands {
			if c.state == stateCandidate && (best == nil || kbucket.Less(c.dist, best.dist)) {
				best = c
			}
		}
		return best
	}

	// converged reports whether the k closest non-failed candidates
	// have all been queried: the closest one still unanswered, if any,
	// must have k answered candidates in front of it.
	converged := func() bool {
		var pending *candidate
		live := 0
		for _, c := range cands {
			if c.state == stateFailed {
				continue
			}
			live++
			if c.state != stateDone && (pending == nil || kbucket.Less(c.dist, pending.dist)) {
				pending = c
			}
		}
		if pending == nil {
			return live > 0
		}
		ahead := 0
		for _, c := range cands {
			if c.state == stateDone && kbucket.Less(c.dist, pending.dist) {
				ahead++
			}
		}
		return ahead >= d.cfg.K
	}

	// Buffered to the query cap so responders never block: a query
	// goroutine deposits its result and exits even when the coordinator
	// has already moved on (early stop, convergence).
	results := make(chan queryResult, maxWalkQueries)
	walkCtx, cancel := src.WithCancel(ctx)
	defer cancel()

	var info WalkInfo
	depth := 0 // the longest discovery chain from the seeds
	defer func() {
		wsp.Annotate("queried", strconv.Itoa(info.Queried))
		wsp.Annotate("failed", strconv.Itoa(info.Failed))
		wsp.Annotate("depth", strconv.Itoa(depth))
		wsp.End()
	}()
	inflight := 0
	launched := 0
	meter := transport.MeterOf(ctx)

	launch := func() {
		for inflight < d.cfg.Alpha && launched < maxWalkQueries {
			c := closestUnqueried()
			if c == nil {
				return
			}
			c.state = stateInflight
			inflight++
			launched++
			req := mkReq()
			req.Peers = d.selfInfo()
			meter.Add(req.Type, 1)
			// Snapshot the candidate's info on this goroutine: the main
			// loop keeps mutating candidates (addCandidate backfills
			// Addrs on responses), and the query goroutine must not read
			// the shared struct concurrently.
			pi := c.info
			src.Go(walkCtx, func(gctx context.Context) {
				qctx, qcancel := src.WithTimeout(gctx, d.cfg.QueryTimeout)
				defer qcancel()
				resp, err := d.sw.Request(qctx, pi.ID, pi.Addrs, req)
				results <- queryResult{id: pi.ID, resp: resp, err: err}
			})
		}
	}

	var final *wire.Message
	launch()
	for inflight > 0 {
		res, ok := simtime.Recv(ctx, src, results)
		if !ok {
			info.Launched = launched
			return d.closestSeen(cands), final, info
		}
		inflight--
		c := cands[res.id]
		if res.err != nil || res.resp.Type == wire.TError {
			c.state = stateFailed
			info.Failed++
			d.table.Remove(res.id)
			wsp.Hop(res.id, false, 0)
		} else {
			c.state = stateDone
			info.Queried++
			d.table.Insert(res.id, kbucket.XOR(c.dist, target)) // dist = key XOR target
			wsp.Hop(res.id, true, c.depth+1)
			depth = max(depth, c.depth+1)
			for _, pi := range res.resp.Peers {
				if len(pi.Addrs) > 0 {
					d.sw.Book().Add(pi.ID, pi.Addrs)
				}
				addCandidate(pi, c.depth+1)
			}
			if stop != nil && stop(res.resp) {
				final = &res.resp
				break
			}
			if converged() {
				break
			}
		}
		launch()
	}
	cancel()
	info.Launched = launched
	return d.closestSeen(cands), final, info
}

// closestSeen returns the k closest candidates observed during the
// walk, regardless of whether they answered.
func (d *DHT) closestSeen(cands map[peer.ID]*candidate) []wire.PeerInfo {
	seen := make([]*candidate, 0, len(cands))
	for _, c := range cands {
		seen = append(seen, c)
	}
	sort.Slice(seen, func(i, j int) bool { return kbucket.Less(seen[i].dist, seen[j].dist) })
	if len(seen) > d.cfg.K {
		seen = seen[:d.cfg.K]
	}
	infos := make([]wire.PeerInfo, len(seen))
	for i, c := range seen {
		infos[i] = c.info
	}
	return infos
}

// WalkClosest finds the k closest peers to a key with FIND_NODE
// queries — step 2 of Figure 3.
func (d *DHT) WalkClosest(ctx context.Context, target kbucket.Key, keyBytes []byte) ([]wire.PeerInfo, WalkInfo, error) {
	closest, _, info := d.walk(ctx, target,
		func() wire.Message { return wire.Message{Type: wire.TFindNode, Key: keyBytes} },
		nil)
	if err := ctx.Err(); err != nil {
		return closest, info, err
	}
	return closest, info, nil
}

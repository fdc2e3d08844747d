package core

import "repro/internal/telemetry"

// The paper's phase split (§6.1–6.2, Figures 9–10, Table 4) is read off
// each operation's span tree here, once its span has ended. The layers
// below record spans and keep no stopwatch.

// retrievePhases fills res's eight durations from a finished retrieval:
//
//	retrieve
//	├─ discover        the Bitswap ask and the provider stream
//	│  ├─ bitswap-ask  the ask (joined=true when it waited on another's)
//	│  └─ …            the stream: dht-walk, accel-/indexer-direct, race:*
//	├─ first-provider  the peer walk (a dht-walk), then the dial
//	└─ fetch
//
// The stream outlives discover, draining fail-over candidates until the
// retrieval ends, so LookupFull is the extent of the stream's own spans
// and Total ends with the last phase, not with the root, which also
// covers the stream's wind-down.
func retrievePhases(root *telemetry.Span, res *RetrieveResult) {
	if root == nil {
		return
	}
	start, _ := root.Offsets()
	var disc, fp, fetch *telemetry.Span
	last := root
	for _, c := range root.Children() {
		switch c.Name() {
		case "discover":
			disc = c
		case "first-provider":
			fp = c
		case "fetch":
			fetch = c
		default:
			continue
		}
		last = c
	}
	_, lastEnd := last.Offsets()
	res.Total = lastEnd - start

	var ask *telemetry.Span
	var stream []*telemetry.Span
	for _, c := range disc.Children() {
		if c.Name() == "bitswap-ask" {
			ask = c // the last: a joined ask whose leader was cancelled asks again
		} else {
			stream = append(stream, c)
		}
	}
	_, discEnd := disc.Offsets()
	attrs := disc.Attrs()
	switch {
	case flag(attrs, "routed") || flag(attrs, "bitswap-hit"):
		res.BitswapPhase = ask.Wall()
	case !flag(attrs, "parallel"):
		// Serial: the stream started when the ask gave up.
		_, askEnd := ask.Offsets()
		res.BitswapPhase = ask.Wall()
		res.ProviderWalk = discEnd - askEnd
	case fp != nil:
		// Parallel, and the stream won: discovery waited on it alone.
		res.ProviderWalk = disc.Wall()
	}
	if len(stream) > 0 {
		from, to := stream[0].Offsets()
		for _, s := range stream[1:] {
			if _, end := s.Offsets(); end > to {
				to = end
			}
		}
		res.LookupFull = to - from
	}
	if fp == nil {
		return
	}
	res.FirstProvider = discEnd - start
	dialFrom, fpEnd := fp.Offsets()
	if walks := fp.Descendants("dht-walk"); len(walks) > 0 {
		res.PeerWalk = walks[0].Wall()
		_, dialFrom = walks[0].Offsets()
	}
	if fetch != nil {
		res.Dial = fpEnd - dialFrom
		res.Fetch = fetch.Wall()
	}
}

// publishPhases fills res's three durations from a finished
// publication: under a parallel router those of the race member
// annotated won=true; the last walk and store batch, so a one-hop
// provide that fell back reports the fallback's; and the whole subtree
// as the total.
func publishPhases(sp *telemetry.Span, res *PublishResult) {
	if sp == nil {
		return
	}
	for _, c := range sp.Children() {
		if flag(c.Attrs(), "won") {
			sp = c
		}
	}
	res.TotalDuration = sp.Wall()
	if walks := sp.Descendants("dht-walk"); len(walks) > 0 {
		res.WalkDuration = walks[len(walks)-1].Wall()
	}
	if batches := sp.Descendants("store-batch"); len(batches) > 0 {
		res.BatchDuration = batches[len(batches)-1].Wall()
	}
}

// flag reports whether attrs annotate key=true.
func flag(attrs []telemetry.Attr, key string) bool {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value == "true"
		}
	}
	return false
}

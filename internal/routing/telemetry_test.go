package routing_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/peer"
	"repro/internal/routing"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// rpcRouter wraps a fakeRouter so its provider stream reports one
// in-flight lookup RPC through the context as it winds down — the
// transport-level RPC a cancelled racer still charges must attribute
// to the parent trace via the race span it ran under.
type rpcRouter struct{ *fakeRouter }

func (r *rpcRouter) FindProvidersStream(ctx context.Context, c cid.Cid) routing.ProviderSeq {
	seq := r.fakeRouter.FindProvidersStream(ctx, c)
	return func(yield func([]wire.PeerInfo) bool) error {
		err := seq(yield)
		telemetry.RPC(ctx, "GET_PROVIDERS", "lookup", r.provider, time.Millisecond, "cancelled")
		return err
	}
}

// TestParallelStreamClosesCancelledRacerSpans races a fast and a slow
// member under a trace, stops the stream after the first batch, and
// asserts the cancelled loser's race span still closed (no leaked open
// spans) with its in-flight RPC attributed to the parent trace.
func TestParallelStreamClosesCancelledRacerSpans(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		rec := telemetry.NewRecorder(s)
		ctx, root := rec.StartTrace(ctx, "retrieve")
		tr := telemetry.TraceFrom(ctx)
		if tr == nil {
			t.Fatal("StartTrace did not put the trace on the context")
		}

		fast := &fakeRouter{src: s, name: "fast", delay: time.Millisecond, provider: peer.ID("winner")}
		slow := &rpcRouter{&fakeRouter{src: s, name: "slow", delay: time.Minute, provider: peer.ID("loser")}}
		r := routing.NewParallel(s, fast, slow)

		var got []wire.PeerInfo
		err := r.FindProvidersStream(ctx, testCid("race"))(func(batch []wire.PeerInfo) bool {
			got = append(got, batch...)
			return false // stop after the winner's batch — cancels the loser
		})
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if len(got) != 1 || got[0].ID != peer.ID("winner") {
			t.Fatalf("providers = %v, want the fast member's", got)
		}
		if !slow.cancelled.Load() {
			t.Error("slow member did not observe cancellation")
		}

		// Both racers got a span; the cancelled loser's must be closed once
		// the stream returns — only the root may remain open.
		for _, name := range []string{"race:fast", "race:slow"} {
			sp := tr.FindSpan(name)
			if sp == nil {
				t.Fatalf("span %q missing from trace", name)
			}
			if sp.Stop().IsZero() {
				t.Errorf("span %q leaked open after the stream returned", name)
			}
		}
		if open := tr.OpenSpans(); open != 1 {
			t.Errorf("OpenSpans = %d after stream, want 1 (just the root)", open)
		}
		root.End()
		if open := tr.OpenSpans(); open != 0 {
			t.Errorf("OpenSpans = %d after root.End, want 0", open)
		}

		// The loser's wind-down RPC must have attached to its race span —
		// i.e. to the parent trace, not been dropped with the cancellation.
		sp := tr.FindSpan("race:slow")
		found := false
		for _, ev := range sp.Events() {
			if ev.Name != "rpc" {
				continue
			}
			for _, a := range ev.Attrs {
				if a.Key == "cat" && a.Value == "lookup" {
					found = true
				}
			}
		}
		if !found {
			t.Error("cancelled racer's RPC did not attribute to its race span")
		}
	})
}

// TestParallelSessionPeersRaceSpansClose covers the SessionPeers race:
// the loser is cancelled and its span must close before the call
// returns.
func TestParallelSessionPeersRaceSpansClose(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		rec := telemetry.NewRecorder(s)
		ctx, root := rec.StartTrace(ctx, "retrieve")
		tr := telemetry.TraceFrom(ctx)

		fast := &fakeRouter{src: s, name: "fast", delay: time.Millisecond, provider: peer.ID("winner")}
		slow := &fakeRouter{src: s, name: "slow", delay: time.Minute, provider: peer.ID("loser")}
		peers, err := routing.NewParallel(s, fast, slow).SessionPeers(ctx, testCid("sess"), 2)
		if err != nil {
			t.Fatalf("SessionPeers: %v", err)
		}
		if len(peers) != 1 || peers[0].ID != peer.ID("winner") {
			t.Fatalf("peers = %v, want the fast member's", peers)
		}
		for _, name := range []string{"race:fast", "race:slow"} {
			sp := tr.FindSpan(name)
			if sp == nil {
				t.Fatalf("span %q missing from trace", name)
			}
			if sp.Stop().IsZero() {
				t.Errorf("span %q leaked open after SessionPeers returned", name)
			}
		}
		root.End()
		if open := tr.OpenSpans(); open != 0 {
			t.Errorf("OpenSpans = %d after root.End, want 0", open)
		}
	})
}

// TestStreamFallbackHandoffKeepsTrace drives an accelerated router
// with an empty snapshot so the direct path misses and hands off to
// the fallback, and asserts the hand-off event and the fallback's work
// all land on the same parent trace span.
func TestStreamFallbackHandoffKeepsTrace(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		rec := telemetry.NewRecorder(s)
		ctx, root := rec.StartTrace(ctx, "retrieve")
		tr := telemetry.TraceFrom(ctx)
		dctx, dsp := telemetry.StartSpan(ctx, "discover")

		fb := &fakeRouter{src: s, name: "walkfb", delay: time.Millisecond, provider: peer.ID("via-fallback")}
		// The router reads its clock off the swarm; with an empty snapshot it
		// never dials through it.
		ident := peer.MustNewIdentity(rand.New(rand.NewSource(1)))
		sw := swarm.New(ident, simnet.New(simnet.Config{}).AddNode(ident.ID, simnet.NodeOpts{}), nil)
		accel := routing.NewAccelerated(sw, fb, routing.AcceleratedConfig{})

		var got []wire.PeerInfo
		err := accel.FindProvidersStream(dctx, testCid("handoff"))(func(batch []wire.PeerInfo) bool {
			got = append(got, batch...)
			return true
		})
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if len(got) != 1 || got[0].ID != peer.ID("via-fallback") {
			t.Fatalf("providers = %v, want the fallback's", got)
		}
		if fb.calls.Load() == 0 {
			t.Fatal("fallback was never consulted")
		}

		// The direct probe opened (and closed) its span under the discover
		// span of the same trace.
		direct := tr.FindSpan("accel-direct")
		if direct == nil {
			t.Fatal("accel-direct span missing — direct probe did not attribute to the parent trace")
		}
		if direct.Stop().IsZero() {
			t.Error("accel-direct span leaked open across the fallback hand-off")
		}

		// The hand-off itself is marked on the span carried by the caller's
		// context, naming the fallback router.
		found := false
		for _, ev := range dsp.Events() {
			if ev.Name != "fallback" {
				continue
			}
			for _, a := range ev.Attrs {
				if a.Key == "to" && a.Value == fb.Name() {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("discover span missing fallback hand-off event; events = %+v", dsp.Events())
		}

		dsp.End()
		root.End()
		if open := tr.OpenSpans(); open != 0 {
			t.Errorf("OpenSpans = %d after ending discover+root, want 0", open)
		}
	})
}

package experiments

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/gateway"
	"repro/internal/gwfleet"
	"repro/internal/simtime/simtest"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/transport"
)

// TestFleetScenario pins the viral-CID flash crowd: the scenario runs
// event-driven with zero scheduler stalls, the fleet absorbs the 100x
// burst at >= 0.9 cache hit rate with sub-linear origin RPC
// amplification, and admission control visibly sheds instead of
// melting the origin. TestFleetFlashCrowdGolden pins the full report.
func TestFleetScenario(t *testing.T) {
	res := RunFleetScenario(FleetScenarioConfig{OriginDir: t.TempDir()})

	if res.SchedStalls != 0 {
		t.Errorf("scheduler stalls = %d, want 0 (a wait on the workload path escaped instrumentation)", res.SchedStalls)
	}
	if hr := res.Stats.CacheHitRate(); hr < 0.9 {
		t.Errorf("fleet cache hit rate = %.3f, want >= 0.9", hr)
	}
	if res.RequestAmp < 50 {
		t.Errorf("request amplification = %.1fx, want a real flash crowd (>= 50x)", res.RequestAmp)
	}
	if res.OriginRPCAmp >= res.RequestAmp/2 {
		t.Errorf("origin RPC amplification = %.1fx vs request amplification %.1fx, want sub-linear",
			res.OriginRPCAmp, res.RequestAmp)
	}
	if len(res.Phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(res.Phases))
	}
	viral := res.Phases[1]
	if viral.Stats.Shed == 0 {
		t.Error("viral phase shed nothing: admission control never engaged at 100x load")
	}
	if viral.Stats.SharedHits+viral.Stats.LocalHits+viral.Stats.NodeStore == 0 {
		t.Error("viral phase had no cache hits at any tier")
	}
}

// TestFleetFlashCrowdGolden pins the flash crowd's report byte for
// byte: per-phase tier counts, the steady phase's p99 time-to-first-byte,
// the fleet cache hit rate and the origin RPC amplification. The run is
// seeded and event-driven, so a change to cache sizing, placement or
// admission shows as a golden diff.
func TestFleetFlashCrowdGolden(t *testing.T) {
	goldenCompare(t, "fleet_flash_crowd.golden", RunFleetScenario(FleetScenarioConfig{OriginDir: t.TempDir()}).Report())
}

// TestFleetNegativeCache pins the fleet-wide negative cache against
// the network budget: a missing CID costs the fleet origin RPCs
// exactly once per TTL window no matter how many requests arrive, and
// a subsequent publish of the CID invalidates the entry immediately.
func TestFleetNegativeCache(t *testing.T) {
	const negTTL = time.Minute
	tn := testnet.Build(testnet.Config{
		N: 60, Seed: 31,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	gwNodes := tn.AddGatewayFleet(2, 40, nil)
	fleet := gwfleet.New(gwNodes, gwfleet.Config{
		NegativeTTL: negTTL,
		Time:        tn.Sched,
		Registry:    telemetry.NewRegistry(),
	})

	// The content exists nowhere and was never published: only the data
	// is known, so the eventual publish below mints the same root CID.
	data := []byte("future content, not yet published anywhere")

	lookupsDuring := func(ctx context.Context, fn func()) int64 {
		before := tn.Net.Budget()
		fn()
		d := tn.Net.Budget().Sub(before)
		return d.Category(transport.CatLookup) + d.Category(transport.CatWant)
	}

	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		scratch := tn.AddGatewayFleet(1, 50, nil)[0]
		root, err := scratch.Add(data)
		if err != nil {
			t.Errorf("scratch add: %v", err)
			return
		}
		req := gateway.Request{Cid: root, Time: tn.Sched.Now()}

		// First request: the whole fleet pays exactly one origin attempt.
		var first gwfleet.Response
		cost := lookupsDuring(ctx, func() { first = fleet.Fetch(ctx, req) })
		if first.Err == nil {
			t.Error("fetch of unpublished CID succeeded")
		}
		if errors.Is(first.Err, gwfleet.ErrKnownMissing) {
			t.Error("first fetch was a negative hit; want a real origin attempt")
		}
		if cost == 0 {
			t.Error("first fetch cost no origin RPCs; want a real lookup")
		}

		// Every further request inside the TTL window fails fast from the
		// shared negative cache: zero origin RPCs across the whole fleet.
		for i := 0; i < 5; i++ {
			var resp gwfleet.Response
			cost := lookupsDuring(ctx, func() { resp = fleet.Fetch(ctx, req) })
			if !errors.Is(resp.Err, gwfleet.ErrKnownMissing) {
				t.Errorf("fetch %d inside TTL window: err = %v, want ErrKnownMissing", i, resp.Err)
			}
			if cost != 0 {
				t.Errorf("fetch %d inside TTL window cost %d origin RPCs, want 0", i, cost)
			}
		}

		// Past the TTL the window closes: the next request pays one fresh
		// origin attempt.
		if err := tn.Sched.Sleep(ctx, negTTL+time.Second); err != nil {
			return
		}
		var again gwfleet.Response
		cost = lookupsDuring(ctx, func() { again = fleet.Fetch(ctx, req) })
		if errors.Is(again.Err, gwfleet.ErrKnownMissing) {
			t.Error("fetch after TTL expiry was a negative hit; want a fresh origin attempt")
		}
		if cost == 0 {
			t.Error("fetch after TTL expiry cost no origin RPCs")
		}

		// A publish through a fleet gateway invalidates the re-opened
		// window immediately: the content is retrievable right away, not
		// after the TTL drains.
		if !fleet.Shared().KnownMissing(root) {
			t.Error("negative window not re-opened after the expired-window fetch failed")
		}
		if _, err := fleet.Gateway(0).Node().AddAndPublish(ctx, data); err != nil {
			t.Errorf("publish: %v", err)
		}
		if fleet.Shared().KnownMissing(root) {
			t.Error("publish did not invalidate the negative-cache entry")
		}
		resp := fleet.Fetch(ctx, req)
		if resp.Err != nil {
			t.Errorf("fetch after publish: err=%v, want served", resp.Err)
		}
	})
}

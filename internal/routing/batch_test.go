package routing_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/cid"
	"repro/internal/routing"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/testnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

func batchCids(n int, tag string) []cid.Cid {
	out := make([]cid.Cid, n)
	for i := range out {
		out[i] = testCid(tag + string(rune('a'+i)))
	}
	return out
}

// TestProvideManyOneRPCPerDistinctTarget is the batched-publication
// contract: a CID batch whose members share target peers issues
// exactly one multi-record ADD_PROVIDER RPC per distinct target,
// asserted against the simulator's request counter.
func TestProvideManyOneRPCPerDistinctTarget(t *testing.T) {
	cids := batchCids(5, "batched content ")
	cases := []struct {
		name    string
		build   func(tn *testnet.Testnet) routing.Router
		targets int // distinct target peers the whole batch lands on
	}{
		{
			// A snapshot smaller than K: every CID's K-closest set is the
			// whole snapshot, so 5 CIDs share the same 8 targets.
			name: "accelerated",
			build: func(tn *testnet.Testnet) routing.Router {
				node := tn.AddVantage("DE", 720)
				r := routing.NewAccelerated(node.Swarm(), nil, routing.AcceleratedConfig{})
				var infos []wire.PeerInfo
				for _, n := range tn.Nodes[:8] {
					infos = append(infos, n.Info())
				}
				r.SetSnapshot(infos)
				return r
			},
			targets: 8,
		},
		{
			// Two indexers: the whole batch rides one bulk announce per
			// indexer.
			name: "indexer",
			build: func(tn *testnet.Testnet) routing.Router {
				node := tn.AddVantage("US", 721)
				indexers := []wire.PeerInfo{
					tn.AddIndexer("US", 722).Info(),
					tn.AddIndexer("DE", 723).Info(),
				}
				return routing.NewIndexerRouter(node.Swarm(), oneShard(indexers...), nil,
					routing.IndexerRouterConfig{})
			},
			targets: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tn := buildCleanNet(t, 60, 71)
			r := tc.build(tn)
			simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
				before := tn.Net.Budget().Requests
				mctx, meter := transport.WithMeter(ctx)
				res, err := r.ProvideMany(mctx, cids)
				if err != nil {
					t.Fatalf("ProvideMany: %v", err)
				}
				after := tn.Net.Budget().Requests
				if res.Targets != tc.targets {
					t.Errorf("Targets = %d, want %d", res.Targets, tc.targets)
				}
				if res.StoreRPCs != tc.targets {
					t.Errorf("StoreRPCs = %d, want exactly one per distinct target (%d)", res.StoreRPCs, tc.targets)
				}
				if got := int(after - before); got != tc.targets {
					t.Errorf("network saw %d requests, want %d (one multi-record RPC per target)", got, tc.targets)
				}
				if res.Provided != len(cids) {
					t.Errorf("Provided = %d, want %d", res.Provided, len(cids))
				}
				if walks := meter.Count(wire.TFindNode); walks != 0 {
					t.Errorf("batch sent %d walk queries, want 0 for one-hop batching", walks)
				}
			})
		})
	}
}

// TestProvideManyAckLedgerSkipsConfirmedTargets pins the ack ledger's
// cycle semantics: records confirmed by Provide earlier in the cycle
// are skipped by the republish batch (zero RPCs), and re-pushed once
// the cycle advances.
func TestProvideManyAckLedgerSkipsConfirmedTargets(t *testing.T) {
	tn := buildCleanNet(t, 60, 73)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		node := tn.AddVantage("DE", 730)
		r := routing.NewAccelerated(node.Swarm(), nil, routing.AcceleratedConfig{})
		var infos []wire.PeerInfo
		for _, n := range tn.Nodes[:6] {
			infos = append(infos, n.Info())
		}
		r.SetSnapshot(infos)
		cids := batchCids(3, "ledger content ")

		for _, c := range cids {
			if _, err := r.Provide(ctx, c); err != nil {
				t.Fatalf("Provide: %v", err)
			}
		}

		// Same cycle: everything is ledger-fresh, the batch sends nothing.
		before := tn.Net.Budget().Requests
		res, err := r.ProvideMany(ctx, cids)
		if err != nil {
			t.Fatalf("ProvideMany (fresh): %v", err)
		}
		after := tn.Net.Budget().Requests
		if res.StoreRPCs != 0 || after != before {
			t.Errorf("fresh batch sent %d RPCs (network saw %d), want 0 — the acks were confirmed this cycle", res.StoreRPCs, after-before)
		}
		if res.SkippedTargets != res.Targets || res.Targets != 6 {
			t.Errorf("skipped %d of %d targets, want all 6", res.SkippedTargets, res.Targets)
		}
		if res.Provided != len(cids) {
			t.Errorf("Provided = %d, want %d (fresh records count as provided)", res.Provided, len(cids))
		}

		// Next cycle: the acks are stale, every target is re-pushed once.
		routing.AdvanceCycle(r)
		before = tn.Net.Budget().Requests
		res, err = r.ProvideMany(ctx, cids)
		if err != nil {
			t.Fatalf("ProvideMany (next cycle): %v", err)
		}
		after = tn.Net.Budget().Requests
		if res.StoreRPCs != 6 || int(after-before) != 6 {
			t.Errorf("next-cycle batch sent %d RPCs (network saw %d), want 6 — one per distinct target", res.StoreRPCs, after-before)
		}
		if res.SkippedTargets != 0 {
			t.Errorf("SkippedTargets = %d, want 0 after the cycle advanced", res.SkippedTargets)
		}
	})
}

// TestLedgerFreshnessExpiresWithClock pins the TTL-safety bound: an
// ack from hours ago must not suppress a re-push even within one
// cycle, or a skipped republish could let records expire.
func TestLedgerFreshnessExpiresWithClock(t *testing.T) {
	clock := simtime.NewClock(testnet.DefaultEpoch)
	l := routing.NewLedger(clock.Now)
	target := wire.PeerInfo{ID: "peer-1"}
	l.Confirm(target, "cid-1")
	if !l.Fresh(target.ID, "cid-1") {
		t.Fatal("just-confirmed ack not fresh")
	}
	clock.Advance(30 * time.Minute)
	if !l.Fresh(target.ID, "cid-1") {
		t.Error("30m-old ack should still be fresh (bound is 1h)")
	}
	clock.Advance(time.Hour)
	if l.Fresh(target.ID, "cid-1") {
		t.Error("90m-old ack must be stale: skipping its re-push endangers record TTLs")
	}
	// A fresh ack from a previous cycle is stale too.
	l.Confirm(target, "cid-2")
	l.Advance()
	if l.Fresh(target.ID, "cid-2") {
		t.Error("previous-cycle ack must be stale after Advance")
	}
}

// TestJitterDesynchronizesCycles pins StartRepublisher's jitter
// helper: deterministic per seed, bounded by the interval, and spread
// across distinct peers.
func TestJitterDesynchronizesCycles(t *testing.T) {
	interval := 12 * time.Hour
	seen := make(map[time.Duration]bool)
	for _, seed := range []string{"peer-a#republish", "peer-b#republish", "peer-c#republish", "peer-d#republish"} {
		j := simtime.Jitter(seed, interval)
		if j < 0 || j >= interval {
			t.Fatalf("Jitter(%q) = %v, want within [0, %v)", seed, j, interval)
		}
		if j != simtime.Jitter(seed, interval) {
			t.Fatalf("Jitter(%q) not deterministic", seed)
		}
		seen[j] = true
	}
	if len(seen) < 3 {
		t.Errorf("4 peers landed on %d distinct jitters, want a spread", len(seen))
	}
	if simtime.Jitter("x", 0) != 0 {
		t.Error("zero interval must yield zero jitter")
	}
}

// TestProvideManyRewalksDeadRememberedTargets pins the durability half
// of the DHT batch path: a CID whose remembered target set has churned
// away entirely is re-walked to the currently-live k closest peers
// instead of being pinned to dead targets forever.
func TestProvideManyRewalksDeadRememberedTargets(t *testing.T) {
	tn := buildCleanNet(t, 50, 75)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		node := tn.AddVantage("DE", 750)
		r := routing.NewDHT(node.DHT())
		c := testCid("repinned content")

		// The ledger remembers a target set that has since gone offline.
		dead := []wire.PeerInfo{tn.Nodes[2].Info(), tn.Nodes[3].Info()}
		for _, d := range dead {
			tn.Net.SetOnline(d.ID, false)
		}
		r.Ledger().SetTargets(c.Key(), dead)

		mctx, meter := transport.WithMeter(ctx)
		res, err := r.ProvideMany(mctx, []cid.Cid{c})
		if err != nil {
			t.Fatalf("ProvideMany: %v", err)
		}
		if meter.Count(wire.TFindNode) == 0 {
			t.Error("dead remembered targets did not trigger a re-walk")
		}
		if res.Provided != 1 {
			t.Fatalf("Provided = %d, want the record reassigned to live peers", res.Provided)
		}
		// The re-walk refreshed the ledger: the remembered set is no longer
		// the dead pair, and the record resolves from another node while the
		// dead peers stay offline.
		targets := r.Ledger().Targets(c.Key())
		if len(targets) == 2 && targets[0].ID == dead[0].ID && targets[1].ID == dead[1].ID {
			t.Error("ledger still remembers the dead target set")
		}
		provs, _, err := findProviders(ctx, routing.NewDHT(tn.Nodes[1].DHT()), c)
		if err != nil || len(provs) == 0 {
			t.Fatalf("providers after re-walk: %v %v", provs, err)
		}
	})
}

package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cid"
	"repro/internal/routing"
	"repro/internal/simtime/simtest"
	"repro/internal/testnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestRepublishBatchesPerTargetPeer is the acceptance test for the
// batched republish path: republishing M CIDs whose records land on P
// distinct target peers issues at most P publish RPCs per cycle —
// asserted against the simulator's network-wide budget — instead of
// the old M × (walk + store fan-out).
func TestRepublishBatchesPerTargetPeer(t *testing.T) {
	tn := buildSmallNet(t, 50)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher := tn.Nodes[0]

		const m = 6
		var cids []cid.Cid
		for i := 0; i < m; i++ {
			pub, err := publisher.AddAndPublish(ctx, []byte(fmt.Sprintf("republished object %d", i)))
			if err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
			cids = append(cids, pub.Cid)
		}
		if got := len(publisher.Provided()); got != m {
			t.Fatalf("tracking %d cids, want %d", got, m)
		}

		// Cycle 0: every record was just confirmed, so the batch skips all
		// targets — the ack-ledger half of the contract.
		st := publisher.Republish(ctx)
		if st.Batch.StoreRPCs != 0 {
			t.Errorf("republish right after publish sent %d store RPCs, want 0 (all acks fresh)", st.Batch.StoreRPCs)
		}
		if st.Batch.Provided != m {
			t.Errorf("fresh cycle Provided = %d, want %d", st.Batch.Provided, m)
		}

		// Cycle 1 (Republish advanced the ledger): the batch re-pushes every
		// record, grouped per target peer — no walks, and the republish
		// budget stays at or below the distinct target count P.
		before := tn.Net.Budget()
		mctx, meter := transport.WithMeter(ctx)
		res := publisher.RepublishRecords(mctx)
		spent := tn.Net.Budget().Sub(before)

		p := res.Targets
		if p == 0 || p >= m*20 {
			t.Fatalf("distinct targets = %d, want a real per-peer grouping (m=%d, k=20)", p, m)
		}
		if walks := meter.Count(wire.TFindNode); walks != 0 {
			t.Errorf("republish sent %d walk queries, want 0 (target sets remembered by the ledger)", walks)
		}
		if res.StoreRPCs > p {
			t.Errorf("republish sent %d store RPCs for %d distinct targets, want <= P", res.StoreRPCs, p)
		}
		repub := spent.Category(transport.CatRepublish)
		if repub > int64(p) {
			t.Errorf("republish budget = %d RPCs for P=%d distinct targets, want <= P (was M x walk+store before batching)", repub, p)
		}
		if repub == 0 {
			t.Error("republish cycle issued no RPCs; the batch never went out")
		}
		if res.Provided < m-1 {
			t.Errorf("republish provided %d of %d cids on a clean network", res.Provided, m)
		}

		// The records actually landed: another node resolves each CID.
		for _, c := range cids {
			found := false
			err := routing.NewDHT(tn.Nodes[1].DHT()).FindProvidersStream(ctx, c)(func([]wire.PeerInfo) bool { found = true; return false })
			if !found {
				t.Fatalf("no providers for %s after batched republish: %v", c, err)
			}
		}
	})
}

// TestRetrieveStreamsFailoverCandidates pins the streaming retrieve
// path: the first provider goes to Bitswap while later stream results
// become fail-over candidates, and the result reports the
// time-to-first-provider alongside the full lookup duration.
func TestRetrieveStreamsFailoverCandidates(t *testing.T) {
	tn := buildSmallNet(t, 40)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		data := []byte("content with two providers")

		a, b := tn.Nodes[0], tn.Nodes[1]
		pub, err := a.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatalf("publish a: %v", err)
		}
		if _, err := b.Add(data); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Publish(ctx, pub.Cid); err != nil {
			t.Fatalf("publish b: %v", err)
		}

		getter := tn.AddVantage("US", 600)
		got, res, err := getter.Retrieve(ctx, pub.Cid)
		if err != nil || string(got) != string(data) {
			t.Fatalf("retrieve: %v", err)
		}
		if res.FirstProvider <= 0 {
			t.Error("time-to-first-provider not measured")
		}
		if res.LookupFull < res.ProviderWalk {
			t.Errorf("full lookup %v shorter than its blocked prefix %v", res.LookupFull, res.ProviderWalk)
		}
		// Both publishers stored on the same k-closest set, so the first
		// record-carrying response names both: one becomes the session
		// provider, the other a fail-over candidate.
		if res.StreamCandidates < 1 {
			t.Errorf("StreamCandidates = %d, want the second provider kept as fail-over", res.StreamCandidates)
		}
	})
}

// TestParallelDiscoveryAskFailsBeforeStream is the deadlock regression
// for discoverParallel: when the Bitswap ask fails before the provider
// stream yields (an unconnected requester: the ask errors instantly,
// the walk takes a while), the stream-win path must not block on the
// already-drained ask channel.
func TestParallelDiscoveryAskFailsBeforeStream(t *testing.T) {
	tn := testnet.Build(testnet.Config{
		N: 40, Seed: 19,
		ParallelDiscovery: true,
		FracDead:          0.0001, FracSlow: 0.0001, FracWSBroken: 0.0001,
	})
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		pub, err := tn.Nodes[0].AddAndPublish(ctx, []byte("raced discovery content"))
		if err != nil {
			t.Fatal(err)
		}
		getter := tn.AddVantage("US", 910)

		// A stream-win path blocked on the drained ask channel would be a
		// wait off the scheduler: the run would stall, which RunOn fails.
		data, _, err := getter.Retrieve(ctx, pub.Cid)
		if err != nil || string(data) != "raced discovery content" {
			t.Fatalf("parallel-discovery retrieve: %v", err)
		}
	})
}

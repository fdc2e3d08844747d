package routing_test

import (
	"context"
	"fmt"
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
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestIndexerSetPartition pins the shard map's contract: every CID
// lands in exactly one shard, the partition is deterministic across
// independently-built sets (publishers and getters must agree with no
// coordination), and a multi-shard split actually uses more than one
// shard.
func TestIndexerSetPartition(t *testing.T) {
	groups := [][]wire.PeerInfo{
		{{ID: peer.ID("a1")}, {ID: peer.ID("a2")}},
		{{ID: peer.ID("b1")}, {ID: peer.ID("b2")}},
		{{ID: peer.ID("c1")}},
	}
	set := routing.NewIndexerSet(groups)
	other := routing.NewIndexerSet(groups)
	if set.Shards() != 3 {
		t.Fatalf("Shards = %d, want 3", set.Shards())
	}
	used := make(map[int]int)
	for i := 0; i < 200; i++ {
		c := testCid(fmt.Sprintf("partition probe %d", i))
		sh := set.ShardOf(c)
		if sh < 0 || sh >= set.Shards() {
			t.Fatalf("ShardOf out of range: %d", sh)
		}
		if got := other.ShardOf(c); got != sh {
			t.Fatalf("independently built set disagrees: %d vs %d", got, sh)
		}
		used[sh]++
	}
	if len(used) != 3 {
		t.Errorf("200 CIDs hit only shards %v, want all 3 used", used)
	}
	if got := set.All(); len(got) != 5 {
		t.Errorf("All() returned %d indexers, want 5", len(got))
	}
}

// shardedHarness is a two-shard, two-replica indexer deployment on a
// bare simnet plus a publisher/getter swarm pair.
type shardedHarness struct {
	net    *simnet.Network
	src    *simtime.Scheduler
	set    *routing.IndexerSet
	groups [][]*routing.Indexer
	pubSw  *swarm.Swarm
	getSw  *swarm.Swarm
}

func newShardedHarness(src *simtime.Scheduler, shards, replicas int, ttl time.Duration) *shardedHarness {
	h := &shardedHarness{src: src}
	h.net = simnet.New(simnet.Config{Time: h.src, Seed: 3})
	rng := rand.New(rand.NewSource(17))
	newSwarm := func() *swarm.Swarm {
		ident := peer.MustNewIdentity(rng)
		ep := h.net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true})
		return swarm.New(ident, ep, h.src)
	}
	infoGroups := make([][]wire.PeerInfo, shards)
	for s := 0; s < shards; s++ {
		var group []*routing.Indexer
		for i := 0; i < replicas; i++ {
			ident := peer.MustNewIdentity(rng)
			ep := h.net.AddNode(ident.ID, simnet.NodeOpts{Region: "US", Dialable: true})
			ix := routing.NewIndexer(ident, ep, routing.IndexerConfig{RecordTTL: ttl, Time: h.src})
			group = append(group, ix)
			infoGroups[s] = append(infoGroups[s], ix.Info())
		}
		h.groups = append(h.groups, group)
	}
	h.set = routing.NewIndexerSet(infoGroups)
	for s, group := range h.groups {
		for _, ix := range group {
			ix.SetReplicaGroup(infoGroups[s])
		}
	}
	h.pubSw, h.getSw = newSwarm(), newSwarm()
	return h
}

func (h *shardedHarness) router(sw *swarm.Swarm, fallback routing.Router) *routing.IndexerRouter {
	return routing.NewIndexerRouter(sw, h.set, fallback, routing.IndexerRouterConfig{})
}

// holders returns which indexers hold a record for c, as shard/replica
// coordinates.
func (h *shardedHarness) holders(c cid.Cid) map[string]bool {
	out := make(map[string]bool)
	for s, group := range h.groups {
		for i, ix := range group {
			if ix.HasProvider(c) {
				out[fmt.Sprintf("%d/%d", s, i)] = true
			}
		}
	}
	return out
}

// TestShardedProvideLandsOnOwningShardOnly asserts the publication
// contract of the sharded router: a record lands on every replica of
// its owning shard and on no other shard, and the batched ProvideMany
// splits a mixed batch per shard the same way.
func TestShardedProvideLandsOnOwningShardOnly(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		h := newShardedHarness(s, 2, 2, 0)
		pub := h.router(h.pubSw, nil)

		cids := batchCids(6, "sharded provide ")
		for _, c := range cids {
			if _, err := pub.Provide(ctx, c); err != nil {
				t.Fatalf("Provide: %v", err)
			}
		}
		for _, c := range cids {
			sh := h.set.ShardOf(c)
			want := map[string]bool{
				fmt.Sprintf("%d/0", sh): true,
				fmt.Sprintf("%d/1", sh): true,
			}
			got := h.holders(c)
			if len(got) != 2 || !got[fmt.Sprintf("%d/0", sh)] || !got[fmt.Sprintf("%d/1", sh)] {
				t.Errorf("cid in shard %d held by %v, want exactly %v", sh, got, want)
			}
		}

		// A fresh router (empty ledger) batching the same CIDs: one bulk
		// RPC per replica of each shard that owns part of the batch.
		pub2 := h.router(h.pubSw, nil)
		res, err := pub2.ProvideMany(ctx, cids)
		if err != nil {
			t.Fatalf("ProvideMany: %v", err)
		}
		shardsUsed := make(map[int]bool)
		for _, c := range cids {
			shardsUsed[h.set.ShardOf(c)] = true
		}
		wantRPCs := 2 * len(shardsUsed) // replicas × shards touched
		if res.StoreRPCs != wantRPCs || res.Provided != len(cids) {
			t.Errorf("ProvideMany = %+v, want %d store RPCs and %d provided", res, wantRPCs, len(cids))
		}
	})
}

// TestGossipRepairsReplicaAndRespectsTTL covers the anti-entropy path:
// a replica offline during publication converges back to its group via
// gossip, the replicated copy keeps the original publish instant (so
// it expires with the original), a second round is deduplicated by the
// gossip ledger, and a record past its TTL is not resurrected.
func TestGossipRepairsReplicaAndRespectsTTL(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		ttl := 4 * time.Hour
		h := newShardedHarness(s, 1, 2, ttl)
		pub := h.router(h.pubSw, nil)
		primary, replica := h.groups[0][0], h.groups[0][1]

		// The replica misses the publish window.
		h.net.SetOnline(replica.ID(), false)
		c := testCid("gossip repaired content")
		if _, err := pub.Provide(ctx, c); err != nil {
			t.Fatalf("Provide with one replica down: %v", err)
		}
		if !primary.HasProvider(c) || replica.HasProvider(c) {
			t.Fatal("record placement before gossip is wrong")
		}

		// Back online: one anti-entropy round repairs it.
		h.net.SetOnline(replica.ID(), true)
		st := primary.Gossip(ctx)
		if st.RPCs == 0 || st.Acked == 0 || st.Records == 0 {
			t.Fatalf("gossip round pushed nothing: %+v", st)
		}
		if !replica.HasProvider(c) {
			t.Fatal("replica not repaired by gossip")
		}

		// The ledger suppresses an immediate re-push.
		if st2 := primary.Gossip(ctx); st2.RPCs != 0 {
			t.Errorf("second round re-pushed despite fresh acks: %+v", st2)
		}

		// The copy expires with the original: advance past the TTL measured
		// from the original publish, not from the gossip arrival.
		s.Sleep(ctx, ttl+time.Hour)
		if replica.HasProvider(c) || primary.HasProvider(c) {
			t.Error("records outlived the original TTL")
		}
		// And an expired record is not resurrected by a later round.
		if st3 := primary.Gossip(ctx); st3.Records != 0 {
			t.Errorf("gossip pushed expired records: %+v", st3)
		}
		replica.GC()
		if got := replica.Len(); got != 0 {
			t.Errorf("replica still holds %d records after GC", got)
		}
	})
}

// TestShardFailoverExtraRPCsPinned is the fail-over cost contract: a
// shard's primary going offline mid-window costs the lookup exactly
// one extra (failed) hop before the surviving replica answers, pinned
// against the simulator's budget — requests only reach the replica,
// the dead primary shows up as a failed dial. The provider stream and
// the session consult walk the same replica loop, so both pay the same.
func TestShardFailoverExtraRPCsPinned(t *testing.T) {
	lookups := []struct {
		name string
		find func(context.Context, *routing.IndexerRouter, cid.Cid) ([]wire.PeerInfo, int, error)
	}{
		{"FindProvidersStream", func(ctx context.Context, r *routing.IndexerRouter, c cid.Cid) ([]wire.PeerInfo, int, error) {
			return findProviders(ctx, r, c)
		}},
		{"SessionPeers", func(ctx context.Context, r *routing.IndexerRouter, c cid.Cid) ([]wire.PeerInfo, int, error) {
			return sessionPeers(ctx, r, c)
		}},
	}
	cases := []struct {
		name          string
		primaryDown   bool
		wantMsgs      int   // routing RPCs the lookup counts
		wantRequests  int64 // requests the network actually carried
		wantDialFails int64
	}{
		{name: "primary online", primaryDown: false, wantMsgs: 1, wantRequests: 1, wantDialFails: 0},
		{name: "primary offline", primaryDown: true, wantMsgs: 2, wantRequests: 1, wantDialFails: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, lk := range lookups {
				t.Run(lk.name, func(t *testing.T) {
					simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
						h := newShardedHarness(s, 1, 2, 0)
						pub, get := h.router(h.pubSw, nil), h.router(h.getSw, nil)

						c := testCid("failover content")
						if _, err := pub.Provide(ctx, c); err != nil {
							t.Fatalf("Provide: %v", err)
						}
						if tc.primaryDown {
							h.net.SetOnline(h.groups[0][0].ID(), false)
						}
						before := h.net.Budget()
						providers, msgs, err := lk.find(ctx, get, c)
						if err != nil {
							t.Fatalf("%s: %v", lk.name, err)
						}
						if len(providers) == 0 || providers[0].ID != h.pubSw.Local() {
							t.Fatalf("providers = %v, want the publisher via a live replica", providers)
						}
						if msgs != tc.wantMsgs {
							t.Errorf("lookup counted %d RPCs, want %d", msgs, tc.wantMsgs)
						}
						d := h.net.Budget().Sub(before)
						if d.Requests != tc.wantRequests || d.DialFailures != tc.wantDialFails {
							t.Errorf("budget delta = %d requests / %d failed dials, want %d / %d",
								d.Requests, d.DialFailures, tc.wantRequests, tc.wantDialFails)
						}
					})
				})
			}
		})
	}
}

// TestEmptyIndexerSetFallsThrough: a shardless topology owns nothing —
// routing must fall through to the configured fallback instead of
// panicking on the shard lookup.
func TestEmptyIndexerSetFallsThrough(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		set := routing.NewIndexerSet(nil)
		if set.Shards() != 0 || set.ShardOf(testCid("anything")) != -1 {
			t.Fatalf("empty set: shards=%d shard=%d, want 0 and -1", set.Shards(), set.ShardOf(testCid("anything")))
		}
		h := newShardedHarness(s, 1, 1, 0)
		fb := &countingRouter{inner: &fakeRouter{src: s, name: "fb", provider: peer.ID("via-fallback"), delay: time.Millisecond}}
		r := routing.NewIndexerRouter(h.getSw, set, fb, routing.IndexerRouterConfig{})

		providers, _, err := findProviders(ctx, r, testCid("unowned"))
		if err != nil || len(providers) == 0 || providers[0].ID != peer.ID("via-fallback") {
			t.Fatalf("lookup = %v, %v; want the fallback's provider", providers, err)
		}
		if _, err := r.Provide(ctx, testCid("unowned")); err != nil {
			t.Fatalf("Provide did not fall through: %v", err)
		}
	})
}

// TestGossipLedgerStaysBounded: the gossip dedup ledger prunes acks
// past the freshness bound and records no target sets, so a sustained
// stream of unique CIDs cannot grow it without bound — the same
// guarantee the tick GC gives the ProviderStore.
func TestGossipLedgerStaysBounded(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		ttl := 2 * time.Hour
		h := newShardedHarness(s, 1, 2, ttl)
		pub := h.router(h.pubSw, nil)
		primary := h.groups[0][0]

		const perRound, rounds = 10, 12
		for round := 0; round < rounds; round++ {
			for j := 0; j < perRound; j++ {
				c := testCid(fmt.Sprintf("ledger bound %d/%d", round, j))
				if _, err := pub.Provide(ctx, c); err != nil {
					t.Fatalf("Provide: %v", err)
				}
			}
			primary.GC()
			primary.Gossip(ctx)
			s.Sleep(ctx, time.Hour)
		}
		// Live records span the TTL window (three rounds' worth at one
		// round per hour) and acks survive one freshness window on top;
		// the ledger must sit in that constant envelope instead of
		// retaining all rounds × perRound acks.
		if got := primary.GossipLedgerLen(); got > 5*perRound {
			t.Errorf("gossip ledger holds %d acks after %d publishes, want <= %d",
				got, rounds*perRound, 5*perRound)
		}
	})
}

// TestShardedStreamMergesReplicas asserts a consumer that keeps the
// stream open receives the union of the replica group's knowledge,
// deduplicated: two replicas with overlapping provider sets yield each
// provider once.
func TestShardedStreamMergesReplicas(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		h := newShardedHarness(s, 1, 2, 0)
		c := testCid("merged stream content")

		// Publish from two different swarms, the second reaching only the
		// second replica — the replicas now hold overlapping sets.
		pub := h.router(h.pubSw, nil)
		if _, err := pub.Provide(ctx, c); err != nil {
			t.Fatalf("Provide: %v", err)
		}
		h.net.SetOnline(h.groups[0][0].ID(), false)
		pub2 := h.router(h.getSw, nil)
		if _, err := pub2.Provide(ctx, c); err != nil {
			t.Fatalf("second Provide: %v", err)
		}
		h.net.SetOnline(h.groups[0][0].ID(), true)

		// A third swarm consumes the full stream.
		rng := rand.New(rand.NewSource(99))
		ident := peer.MustNewIdentity(rng)
		ep := h.net.AddNode(ident.ID, simnet.NodeOpts{Region: "DE", Dialable: true})
		sw := swarm.New(ident, ep, h.src)
		get := h.router(sw, nil)

		mctx, meter := transport.WithMeter(ctx)
		seen := make(map[peer.ID]int)
		batches := 0
		err := get.FindProvidersStream(mctx, c)(func(batch []wire.PeerInfo) bool {
			batches++
			for _, p := range batch {
				seen[p.ID]++
			}
			return true
		})
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		if len(seen) != 2 {
			t.Fatalf("merged stream saw providers %v, want both publishers", seen)
		}
		for id, n := range seen {
			if n != 1 {
				t.Errorf("provider %s yielded %d times, want deduplicated", id.Short(), n)
			}
		}
		if batches != 2 {
			t.Errorf("stream yielded %d batches, want one per answering replica", batches)
		}
		if q := meter.Count(wire.TGetProviders); q != 2 {
			t.Errorf("stream queried %d replicas, want 2", q)
		}
	})
}

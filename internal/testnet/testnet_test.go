package testnet

import (
	"context"
	"testing"
	"time"

	"repro/internal/churn"
	"repro/internal/geo"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/wire"
)

func TestBuildTopology(t *testing.T) {
	tn := Build(Config{N: 120, Seed: 5})
	if len(tn.Nodes) != 120 || len(tn.Classes) != 120 {
		t.Fatalf("nodes=%d classes=%d", len(tn.Nodes), len(tn.Classes))
	}
	// Every routing table is seeded with neighbours + random links.
	for i, node := range tn.Nodes {
		if node.DHT().Table().Len() < 2*tn.Cfg.NeighborLinks/2 {
			t.Errorf("node %d table has only %d peers", i, node.DHT().Table().Len())
		}
	}
	// Population attributes align with nodes.
	if len(tn.Pop.Peers) != 120 {
		t.Errorf("population = %d", len(tn.Pop.Peers))
	}
}

func TestClassMix(t *testing.T) {
	tn := Build(Config{N: 600, Seed: 6, FracDead: 0.2, FracSlow: 0.1, FracWSBroken: 0.05})
	counts := map[simnet.Class]int{}
	for _, c := range tn.Classes {
		counts[c]++
	}
	n := float64(len(tn.Classes))
	if f := float64(counts[simnet.DeadDial]) / n; f < 0.14 || f > 0.27 {
		t.Errorf("dead fraction = %.2f, want ~0.2", f)
	}
	if f := float64(counts[simnet.Slow]) / n; f < 0.05 || f > 0.16 {
		t.Errorf("slow fraction = %.2f, want ~0.1", f)
	}
	if len(tn.LiveNodes()) != counts[simnet.Normal] {
		t.Error("LiveNodes should match the Normal class count")
	}
}

func TestDeterministicBuild(t *testing.T) {
	a := Build(Config{N: 40, Seed: 7})
	b := Build(Config{N: 40, Seed: 7})
	for i := range a.Nodes {
		if a.Nodes[i].ID() != b.Nodes[i].ID() {
			t.Fatal("builds with the same seed must be identical")
		}
		if a.Classes[i] != b.Classes[i] {
			t.Fatal("class assignment must be deterministic")
		}
	}
}

func TestVantageOperates(t *testing.T) {
	tn := Build(Config{N: 60, Seed: 8, FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9})
	v := tn.AddVantage(geo.EuCentral1, 99)
	if v.Region() != geo.EuCentral1 {
		t.Error("region not set")
	}
	if v.DHT().Table().Len() == 0 {
		t.Error("vantage table not seeded")
	}
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		ctx, cancel := tn.Sched.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		pub, err := v.AddAndPublish(ctx, []byte("vantage content"))
		if err != nil {
			t.Fatal(err)
		}
		if pub.StoreOK == 0 {
			t.Error("no records stored")
		}
	})
	// FlushVantage clears connections and the address book.
	FlushVantage(v)
	if len(v.Swarm().ConnectedPeers()) != 0 || v.Swarm().Book().Len() != 0 {
		t.Error("FlushVantage left state behind")
	}
}

func TestLookupsConvergeAcrossKeyspace(t *testing.T) {
	// The neighbour+random topology must let any node find the true
	// closest peers for arbitrary keys.
	tn := Build(Config{N: 150, Seed: 9, FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9})
	payloads := [][]byte{[]byte("k1"), []byte("k2"), []byte("k3")}
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		for i, p := range payloads {
			publisher := tn.Nodes[(i*37)%len(tn.Nodes)]
			pub, err := publisher.AddAndPublish(ctx, p)
			if err != nil {
				t.Fatalf("publish %d: %v", i, err)
			}
			requester := tn.Nodes[(i*53+11)%len(tn.Nodes)]
			var provs []wire.PeerInfo
			requester.DHT().FindProvidersStream(ctx, pub.Cid, func(b []wire.PeerInfo) bool { provs = b; return false })
			if len(provs) == 0 {
				t.Fatalf("no providers for key %d", i)
			}
		}
	})
}

// TestScheduleTimeline checks the churn-timeline liveness lever: once
// the timeline is on the scheduler, every server node's simulated
// liveness matches its timeline at whatever instant the run has
// reached — the chained transition events fired at the session
// boundaries in between — and vantages stay online.
func TestScheduleTimeline(t *testing.T) {
	tn := Build(Config{N: 80, Seed: 3,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9})
	tl := churn.GenerateTimeline(tn.Pop, churn.TimelineConfig{
		Start: DefaultEpoch, Duration: 13 * time.Hour, Seed: 7,
	})
	vantage := tn.AddVantage("DE", 99)

	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		online := tn.ScheduleTimeline(tl, DefaultEpoch, DefaultEpoch.Add(12*time.Hour))
		if want := tl.OnlineCount(DefaultEpoch); online != want {
			t.Errorf("ScheduleTimeline returned %d online at the start, the timeline says %d", online, want)
		}
		for _, off := range []time.Duration{0, 6 * time.Hour, 12 * time.Hour} {
			at := DefaultEpoch.Add(off)
			if err := tn.Sched.SleepUntil(ctx, at); err != nil {
				t.Fatal(err)
			}
			count := 0
			for i, node := range tn.Nodes {
				want := tl.Peers[i].OnlineAt(at)
				if got := tn.Net.Online(node.ID()); got != want {
					t.Fatalf("offset %v: node %d online = %v, timeline says %v", off, i, got, want)
				}
				if want {
					count++
				}
			}
			if count <= 0 || count >= 80 {
				t.Fatalf("offset %v: online = %d, want within (0, 80) under churn", off, count)
			}
			if !tn.Net.Online(vantage.ID()) {
				t.Error("vantage went offline; timelines must only govern server nodes")
			}
		}
	})
}

// TestClockDrivesNow checks that the testnet's one scheduler is every
// component's time source, that its virtual clock starts at DefaultEpoch
// and that Now follows it.
func TestClockDrivesNow(t *testing.T) {
	tn := Build(Config{N: 10, Seed: 4})
	if got := tn.Sched.Now(); !got.Equal(DefaultEpoch) {
		t.Fatalf("Now = %v, want DefaultEpoch", got)
	}
	for _, src := range []simtime.Source{tn.Net.Time(), tn.Nodes[0].Swarm().Time(), tn.Nodes[0].DHT().Time(), tn.AddVantage("DE", 5).Swarm().Time()} {
		if src != simtime.Source(tn.Sched) {
			t.Fatalf("a component runs on %v, not the testnet's scheduler", src)
		}
	}
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		tn.Sched.Sleep(ctx, 3*time.Hour)
		if got := tn.Nodes[0].Swarm().Time().Now(); !got.Equal(DefaultEpoch.Add(3 * time.Hour)) {
			t.Fatalf("Now did not follow the virtual clock: %v", got)
		}
	})
}

// TestAddIndexerSetWiring checks the fleet builder: shards×replicas
// indexers attached, one replica group per shard with gossip
// neighbours wired (self excluded), and a topology whose flattened
// membership matches the built nodes.
func TestAddIndexerSetWiring(t *testing.T) {
	tn := Build(Config{N: 10, Seed: 4})
	fleet := tn.AddIndexerSet(700, 3, 2, time.Hour)
	if fleet.Set.Shards() != 3 || len(fleet.Groups) != 3 {
		t.Fatalf("shards = %d/%d, want 3", fleet.Set.Shards(), len(fleet.Groups))
	}
	if got := len(fleet.Nodes()); got != 6 {
		t.Fatalf("fleet has %d nodes, want 6", got)
	}
	all := fleet.Set.All()
	if len(all) != 6 {
		t.Fatalf("topology lists %d indexers, want 6", len(all))
	}
	for s, group := range fleet.Groups {
		if len(group) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", s, len(group))
		}
		for i, ix := range group {
			if fleet.Replica(s, i) != ix {
				t.Errorf("Replica(%d,%d) mismatch", s, i)
			}
			neighbours := ix.ReplicaGroup()
			if len(neighbours) != 1 {
				t.Fatalf("replica %d/%d has %d gossip neighbours, want 1", s, i, len(neighbours))
			}
			if neighbours[0].ID != group[1-i].ID() {
				t.Errorf("replica %d/%d gossips to %s, want its group peer", s, i, neighbours[0].ID.Short())
			}
		}
	}
	// The replicas of one shard own the same CIDs: the set's partition
	// maps each indexer to exactly one shard.
	for s := range fleet.Groups {
		for _, pi := range fleet.Set.Replicas(s) {
			if got := fleet.Set.Group(pi.ID); len(got) != 1 {
				t.Errorf("Group(%s) = %d peers, want 1", pi.ID.Short(), len(got))
			}
		}
	}
}

package ipfs_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/ipfs"
)

func TestSimNetworkPublishRetrieve(t *testing.T) {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 60, Clean: true, Seed: 3})
	if net.Len() != 60 {
		t.Fatalf("Len = %d", net.Len())
	}
	alice, bob := net.Node(0), net.Node(30)
	content := bytes.Repeat([]byte("facade"), 5000)

	net.Run(func(ctx context.Context) {
		pub, err := alice.AddAndPublish(ctx, content)
		if err != nil {
			t.Error(err)
			return
		}
		if err := alice.PublishPeerRecord(ctx); err != nil {
			t.Error(err)
			return
		}
		got, res, err := bob.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) {
			t.Error("content mismatch")
		}
		if res.Provider != alice.ID() {
			t.Error("wrong provider")
		}
		if res.Total <= 0 || res.Total > time.Minute {
			t.Errorf("retrieval took %v of simulated time", res.Total)
		}
	})
}

func TestParseCidRoundTrip(t *testing.T) {
	c := ipfs.SumCid([]byte("parse me"))
	back, err := ipfs.ParseCid(c.String())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Error("round trip failed")
	}
	if _, err := ipfs.ParseCid("garbage"); err == nil {
		t.Error("garbage should not parse")
	}
}

func TestParsePeerInfo(t *testing.T) {
	node, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	addr := node.Addrs()[0].String()
	info, err := ipfs.ParsePeerInfo(addr)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != node.ID() || len(info.Addrs) != 1 {
		t.Errorf("info = %+v", info)
	}
	if _, err := ipfs.ParsePeerInfo("/ip4/1.2.3.4/tcp/4001"); err == nil {
		t.Error("address without /p2p should fail")
	}
	if _, err := ipfs.ParsePeerInfo("junk"); err == nil {
		t.Error("junk should fail")
	}
}

func TestNewTCPNodeDeterministicSeed(t *testing.T) {
	a, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if a.ID() != b.ID() {
		t.Error("same seed should produce the same identity")
	}
}

// TestTCPNodeRepublishesOnTheWallClock runs the republish loop the
// daemons start on a real-time node: with a 100 ms interval the first
// cycle fires after its jitter plus one interval, at most 200 ms in.
func TestTCPNodeRepublishesOnTheWallClock(t *testing.T) {
	node, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node.StartRepublisher(ctx, 100*time.Millisecond)
	cycles := node.Telemetry().Registry().Counter("republish_cycles")
	deadline := time.Now().Add(10 * time.Second)
	for cycles.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no republish cycle within 10 s of a 100 ms interval")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestNewBlockStore(t *testing.T) {
	for _, tc := range []struct {
		kind, dir string
		want      string // the store's type, or "" when the call must fail
		errHas    string // what the error must say
	}{
		{"", "", "*block.MemStore", ""},
		{"mem", "", "*block.MemStore", ""},
		{"pack", t.TempDir(), "*block.PackStore", ""},
		{"pack", "", "", "needs a directory"},
		{"fs", t.TempDir(), "", "mem or pack"},
		{"bogus", "", "", "mem or pack"},
	} {
		s, err := ipfs.NewBlockStore(tc.kind, tc.dir)
		if tc.want == "" {
			if err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Errorf("NewBlockStore(%q, %q) = %v, want an error naming %q", tc.kind, tc.dir, err, tc.errHas)
			}
			continue
		}
		if err != nil {
			t.Errorf("NewBlockStore(%q, %q): %v", tc.kind, tc.dir, err)
			continue
		}
		if got := fmt.Sprintf("%T", s); got != tc.want {
			t.Errorf("NewBlockStore(%q) built a %s, want %s", tc.kind, got, tc.want)
		}
		if c, ok := s.(io.Closer); ok {
			if err := c.Close(); err != nil {
				t.Errorf("closing the %q store: %v", tc.kind, err)
			}
		}
	}
}

func TestFacadeGateway(t *testing.T) {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 30, Clean: true, Seed: 4})
	gw := net.NewGateway("US", 8<<20, 11)
	data := []byte("gateway content")
	root, err := gw.Pin(data)
	if err != nil {
		t.Fatal(err)
	}
	net.Run(func(ctx context.Context) {
		resp, _ := gw.Fetch(ctx, ipfs.GatewayRequest{Cid: root, Time: time.Now(), UserID: "t"})
		if resp.Err != nil || resp.Bytes != len(data) {
			t.Errorf("resp = %+v", resp)
		}
	})
	stats := ipfs.SummarizeGatewayLog(gw.Log())
	if stats["IPFS node store"].Requests != 1 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestFacadeCrawler(t *testing.T) {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 50, Clean: true, Seed: 5})
	cr := net.NewCrawler(77)
	net.Run(func(ctx context.Context) {
		report := cr.Crawl(ctx, net.Bootstrap(2))
		if len(report.Observations) < 48 {
			t.Errorf("crawl found %d of 50", len(report.Observations))
		}
	})
}

func TestAddNodeJoins(t *testing.T) {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 40, Clean: true, Seed: 6})
	joiner := net.AddNode("DE", 123)
	net.Run(func(ctx context.Context) {
		pub, err := joiner.AddAndPublish(ctx, []byte("from the newcomer"))
		if err != nil {
			t.Error(err)
			return
		}
		if err := joiner.PublishPeerRecord(ctx); err != nil {
			t.Error(err)
			return
		}
		got, _, err := net.Node(10).Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Error(err)
			return
		}
		if string(got) != "from the newcomer" {
			t.Error("content mismatch")
		}
	})
}

// TestAddNodeRoutingIndexer publishes through nodes wired to a 1×1
// indexer fleet and retrieves with a single indexer RPC.
func TestAddNodeRoutingIndexer(t *testing.T) {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 40, Clean: true, Seed: 8})
	fleet := net.AddIndexerSet(200, 1, 1)
	ix := fleet.Replica(0, 0)
	publisher := net.AddNodeRouting("DE", 201, ipfs.RoutingIndexer, fleet)
	getter := net.AddNodeRouting("US", 202, ipfs.RoutingIndexer, fleet)
	content := []byte("routed by the indexer")
	net.Run(func(ctx context.Context) {
		pub, err := publisher.AddAndPublish(ctx, content)
		if err != nil {
			t.Error(err)
			return
		}
		if !ix.HasProvider(pub.Cid) {
			t.Error("the indexer holds no record after the publish")
		}
		got, res, err := getter.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Error(err)
			return
		}
		if !bytes.Equal(got, content) || res.Provider != publisher.ID() {
			t.Errorf("retrieved %q from %s, want the content from the publisher", got, res.Provider.Short())
		}
		if res.LookupMsgs != 1 || !res.RoutedSession {
			t.Errorf("retrieve spent %d routing RPCs (routed session %v), want 1 indexer RPC", res.LookupMsgs, res.RoutedSession)
		}
	})
}

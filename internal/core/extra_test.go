package core_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/simtime/simtest"
	"repro/internal/wire"
)

func TestAddTreeAndCatPath(t *testing.T) {
	tn := buildSmallNet(t, 10)
	node := tn.Nodes[0]
	files := map[string][]byte{
		"site/index.html": []byte("<h1>hi</h1>"),
		"site/app.js":     []byte("console.log(1)"),
		"README.md":       []byte("# root"),
	}
	root, err := node.AddTree(files)
	if err != nil {
		t.Fatal(err)
	}
	got, err := node.CatPath(root, "site/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, files["site/index.html"]) {
		t.Error("CatPath mismatch")
	}
	entries, err := node.List(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 { // README.md + site/
		t.Errorf("root entries = %d", len(entries))
	}
}

func TestDirectoryTreePublishRetrievePath(t *testing.T) {
	tn := buildSmallNet(t, 40)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher, requester := tn.Nodes[0], tn.Nodes[20]
		root, err := publisher.AddTree(map[string][]byte{
			"assets/a.bin": bytes.Repeat([]byte{1}, 5000),
			"assets/b.bin": bytes.Repeat([]byte{2}, 5000),
			"index":        []byte("hello"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := publisher.Publish(ctx, root); err != nil {
			t.Fatal(err)
		}
		publisher.PublishPeerRecord(ctx)

		// Retrieve the whole tree, then resolve paths locally.
		if _, _, err := requester.Retrieve(ctx, root); err != nil {
			t.Fatal(err)
		}
		got, err := requester.CatPath(root, "assets/b.bin")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5000 || got[0] != 2 {
			t.Error("path content mismatch after network retrieval")
		}
	})
}

func TestRepublishRestoresRecords(t *testing.T) {
	tn := buildSmallNet(t, 40)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher := tn.Nodes[0]
		pub, err := publisher.AddAndPublish(ctx, []byte("republished content"))
		if err != nil {
			t.Fatal(err)
		}
		if got := publisher.Provided(); len(got) != 1 || !got[0].Equal(pub.Cid) {
			t.Fatalf("Provided = %v", got)
		}

		count := func() int {
			n := 0
			for _, other := range tn.Nodes {
				for _, rec := range other.DHT().Providers().Get(pub.Cid) {
					if rec.Provider == publisher.ID() {
						n++
					}
				}
			}
			return n
		}
		before := count()
		if before == 0 {
			t.Fatal("no records after initial publish")
		}
		// Some record holders churn away; their stores vanish with them.
		lost := 0
		for i := 1; i < len(tn.Nodes) && lost < 10; i++ {
			if len(tn.Nodes[i].DHT().Providers().Get(pub.Cid)) > 0 {
				tn.Net.SetOnline(tn.Nodes[i].ID(), false)
				lost++
			}
		}
		// The 12h cycle (run manually here) re-walks the DHT and assigns
		// fresh record holders among the remaining peers.
		st := publisher.Republish(ctx)
		if st.Batch.Provided < 1 {
			t.Errorf("Republish landed records for %d cids, want the tracked cid re-provided", st.Batch.Provided)
		}
		if !st.PeerRecordOK {
			t.Error("Republish did not refresh the peer record")
		}
		for i := range tn.Nodes {
			tn.Net.SetOnline(tn.Nodes[i].ID(), true)
		}
		if after := count(); after < before {
			t.Errorf("record holders after republish = %d, before churn = %d", after, before)
		}
	})
}

func TestStartRepublisherTicks(t *testing.T) {
	tn := buildSmallNet(t, 30)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		publisher := tn.Nodes[0]
		pub, err := publisher.AddAndPublish(ctx, []byte("looped"))
		if err != nil {
			t.Fatal(err)
		}
		lctx, cancel := context.WithCancel(ctx)
		defer cancel()
		publisher.StartRepublisher(lctx, 20*time.Second)
		tn.Sched.Sleep(ctx, 4*time.Minute) // a dozen cycles
		cancel()
		// The loop must have run without panicking; records still resolvable.
		var provs []wire.PeerInfo
		tn.Nodes[5].DHT().FindProvidersStream(ctx, pub.Cid, func(b []wire.PeerInfo) bool { provs = b; return false })
		if len(provs) == 0 {
			t.Error("no providers after the republish loop")
		}
	})
}

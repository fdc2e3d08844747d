package core_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/geo"
	"repro/internal/multicodec"
	"repro/internal/simtime/simtest"
	"repro/internal/testnet"
)

// TestPackBackedNodeServesRetrieval runs a full publish/retrieve cycle
// with the publisher's blockstore on disk: the Bitswap serve path must
// read through block.Store, and the pack metrics must land in the
// publisher's telemetry registry.
func TestPackBackedNodeServesRetrieval(t *testing.T) {
	ps, err := block.NewPackStore(t.TempDir(), block.PackConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tn := buildSmallNet(t, 40)
	simtest.RunOn(t, tn.Sched, func(ctx context.Context) {
		pubV := tn.AddVantageStore(geo.EuCentral1, 901, ps)
		getV := tn.AddVantage(geo.ApSoutheast2, 902)
		if pubV.Store() != block.Store(ps) {
			t.Fatal("node not backed by the supplied store")
		}

		data := bytes.Repeat([]byte{0xAB}, 16*1024)
		pub, err := pubV.AddAndPublish(ctx, data)
		if err != nil {
			t.Fatal(err)
		}
		if err := pubV.PublishPeerRecord(ctx); err != nil {
			t.Fatal(err)
		}
		if !ps.Has(pub.Cid) {
			t.Fatal("added root not in the pack store")
		}

		testnet.FlushVantage(getV)
		got, _, err := getV.Retrieve(ctx, pub.Cid)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("retrieved data mismatch")
		}

		snap := pubV.Telemetry().Registry().Snapshot()
		if snap.Counters["blockstore_puts{store=pack}"] == 0 {
			t.Error("pack put counter not wired into node telemetry")
		}
		if snap.Counters["blockstore_gets{store=pack}"] == 0 {
			t.Error("Bitswap serving did not read through the pack store")
		}
		if snap.Gauges["pack_live_bytes"] == 0 {
			t.Error("pack_live_bytes gauge not published")
		}

		// The pack store exposes pinning, so the node must surface it.
		pubV.Pinner().Pin(pub.Cid)
		if !ps.Pinned(pub.Cid) {
			t.Error("Pinner() not backed by the pack store")
		}

		// Closing the node closes the store underneath it.
		if err := pubV.Close(); err != nil {
			t.Fatal(err)
		}
		if err := ps.Put(block.New(multicodec.Raw, []byte("after close"))); err == nil {
			t.Error("Put succeeded after node.Close, store was not closed")
		}
	})
}

// TestNodeDefaultStoreIsMem: leaving Config.Store nil keeps the
// historical in-memory behaviour, including pinning and ClearStore.
func TestNodeDefaultStoreIsMem(t *testing.T) {
	tn := buildSmallNet(t, 10)
	node := tn.AddVantage(geo.UsWest1, 903)
	if _, ok := node.Store().(*block.MemStore); !ok {
		t.Fatalf("default store = %T, want *block.MemStore", node.Store())
	}
	c := cid.Sum(multicodec.Raw, []byte("pin me"))
	node.Pinner().Pin(c)
	if !node.Pinner().Pinned(c) {
		t.Error("MemStore pinning not surfaced")
	}
	if _, err := node.Add([]byte("clearable")); err != nil {
		t.Fatal(err)
	}
	node.ClearStore()
	if node.Store().Len() != 0 {
		t.Error("ClearStore left blocks behind")
	}
}

// TestPinlessStoreNodeNoopPinner: LRUStore has no pin surface; the
// node must fall back to a no-op pinner rather than panic.
func TestPinlessStoreNodeNoopPinner(t *testing.T) {
	tn := buildSmallNet(t, 10)
	node := tn.AddVantageStore(geo.UsWest1, 904, block.NewLRUStore(1<<20))
	c := cid.Sum(multicodec.Raw, []byte("unpinnable"))
	node.Pinner().Pin(c) // must not panic
	if node.Pinner().Pinned(c) {
		t.Error("no-op pinner reported a pin")
	}
	if _, err := node.Add([]byte("lru-backed block")); err != nil {
		t.Fatal(err)
	}
	if node.Store().Len() == 0 {
		t.Error("Add did not land in the lru store")
	}
}

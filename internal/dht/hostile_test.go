package dht

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cid"
	"repro/internal/multicodec"
	"repro/internal/multihash"
	"repro/internal/record"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/wire"
)

// TestHostilePublisherFillsToTheBudget: one peer batches a million
// distinct keys into a server's ADD_PROVIDER handler. The store ends at
// its budget, not at a million; what it holds is a handful of heap
// objects, not one per record; and an honest record added afterwards is
// stored and served.
func TestHostilePublisherFillsToTheBudget(t *testing.T) {
	keys := 1_000_000
	if testing.Short() {
		keys = record.MaxProviderRecords + 40_000 // still past the budget
	}
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 3, nil)
		server, hostile, honest := tn.nodes[0], tn.nodes[1], tn.nodes[2]
		self := func(d *DHT) []wire.PeerInfo { return []wire.PeerInfo{{ID: d.ident.ID, Addrs: d.sw.Addrs()}} }

		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)

		const batch = 1000
		digest := make([]byte, 32)
		for sent := 0; sent < keys; sent += batch {
			batchKeys := make([][]byte, batch)
			for i := range batchKeys {
				n := sent + i
				digest[0], digest[1], digest[2], digest[3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
				c, err := cid.New(cid.V1, multicodec.Raw, multihash.FromDigest(multicodec.SHA2_256, digest))
				if err != nil {
					t.Fatal(err)
				}
				batchKeys[i] = c.Bytes()
			}
			resp := server.HandleMessage(ctx, hostile.ident.ID, wire.Message{
				Type: wire.TAddProvider, Key: batchKeys[0], Keys: batchKeys[1:], Providers: self(hostile),
			})
			if resp.Type != wire.TAck {
				t.Fatalf("batch at %d refused: %+v", sent, resp)
			}
		}

		runtime.GC()
		runtime.ReadMemStats(&after)
		if got := server.Providers().Len(); got != record.MaxProviderRecords {
			t.Errorf("store holds %d records after %d hostile keys, want the budget %d", got, keys, record.MaxProviderRecords)
		}
		// The index map's buckets are the only per-record allocations
		// left, a few per thousand records.
		t.Logf("heap objects: +%d, heap +%d KB", int64(after.HeapObjects)-int64(before.HeapObjects), (int64(after.HeapAlloc)-int64(before.HeapAlloc))/1024)
		if objs := int64(after.HeapObjects) - int64(before.HeapObjects); objs > record.MaxProviderRecords/50 {
			t.Errorf("%d heap objects hold %d records: state is allocated per record", objs, record.MaxProviderRecords)
		}

		c := cid.Sum(multicodec.Raw, []byte("honest content"))
		resp := server.HandleMessage(ctx, honest.ident.ID, wire.Message{Type: wire.TAddProvider, Key: c.Bytes(), Providers: self(honest)})
		if resp.Type != wire.TAck {
			t.Fatalf("honest record refused: %+v", resp)
		}
		got := server.HandleMessage(ctx, honest.ident.ID, wire.Message{Type: wire.TGetProviders, Key: c.Bytes()})
		if len(got.Providers) != 1 || got.Providers[0].ID != honest.ident.ID {
			t.Errorf("honest record not served from the full store: %+v", got.Providers)
		}
		if got := server.Providers().Len(); got != record.MaxProviderRecords {
			t.Errorf("store holds %d records after the honest add, want the budget %d", got, record.MaxProviderRecords)
		}
	})
}

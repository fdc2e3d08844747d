// Package repro's root benchmark harness: the layer benchmarks, one per
// layer a retrieval or a publication crosses — CID hashing, DAG import
// and assembly, the wire codec and its TCP framing, routing-table
// selection, the DHT walk, scheduler dispatch, the pack store's Get and
// Delete, the provider store, trace recording, a 2 000-peer network
// build, a whole TCP retrieve, the join of a TCP mesh and a gateway GET
// over loopback HTTP. Each has a real b.N and runs in CI's
// layer-bench step with allocations reported. The paper's tables and figures are
// not benchmarks: they are seeded simulations, pinned exactly by the
// golden and replay tests of internal/experiments.
package repro

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/geo"
	"repro/internal/kbucket"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/multihash"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/wire"
	"repro/ipfs"
)

// BenchmarkCidSum measures CID computation over 256 KiB chunks.
func BenchmarkCidSum(b *testing.B) {
	data := bytes.Repeat([]byte{1}, 256*1024)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cid.Sum(multicodec.Raw, data)
	}
}

// BenchmarkDagBuild measures importing a 4 MiB file.
func BenchmarkDagBuild(b *testing.B) {
	data := bytes.Repeat([]byte{2}, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := block.NewMemStore()
		if _, err := merkledag.NewBuilder(store, 0, 0).Add(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDagAssemble measures reassembling a 4 MiB DAG.
func BenchmarkDagAssemble(b *testing.B) {
	data := bytes.Repeat([]byte{3}, 4<<20)
	store := block.NewMemStore()
	root, err := merkledag.NewBuilder(store, 0, 0).Add(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := merkledag.Assemble(store, root); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackStoreDelete measures what one Delete costs a pack store
// that already holds many tombstones: the Delete plus the candidate scan
// its kick wakes (CompactNow, called inline; the background loop is
// off). Every case builds at least eight sealed volumes and checks that
// none of them is compactable, so each scan finds nothing and ns/op is
// the scan's own cost.
//
//   - tombstones=N: N tombstones spread over the sealed volumes, each
//     masking a put one volume back, every volume near a 0.35 dead
//     ratio. No volume reaches the threshold on its raw dead bytes, so
//     the scan must stay O(volumes): ns/op flat in N.
//   - small-blocks: 256 B blocks and a GC-sweep burst whose tombstones
//     fill one sealed volume. Its raw dead ratio is past the threshold
//     but every tombstone in it is still needed, so each scan walks
//     them: ns/op is that volume's tombstone count times one O(1)
//     tombstoneNeeded.
//
// The deleted victims are 64 B blocks put into the active volume before
// the timer starts; the store is reopened at the default volume cap
// first, so their records never seal a volume mid-measurement.
func BenchmarkPackStoreDelete(b *testing.B) {
	cases := []struct {
		name      string
		blockSize int
		spread    int // tombstones spread over the sealed volumes
		burst     int // tombstones appended in one sweep at the end
	}{
		{"tombstones=1000", 512, 1000, 0},
		{"tombstones=20000", 512, 20000, 0},
		{"small-blocks", 256, 0, 4000},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			// One block in three (spread) or two in five (burst) dies.
			standing := 3*tc.spread + 5*tc.burst/2
			perVolume := standing / 10
			standing += perVolume            // the spread deletes lag one volume behind
			recLen := 15 + 36 + tc.blockSize // record header, CIDv1 sha2-256, payload
			dir := b.TempDir()
			cfg := block.PackConfig{VolumeSizeCap: int64(perVolume * recLen), DisableBackground: true}
			ps, err := block.NewPackStore(dir, cfg)
			if err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, tc.blockSize)
			put := func(tag byte, i int) cid.Cid {
				buf[0], buf[1], buf[2], buf[3], buf[4] = tag, byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
				blk := block.New(multicodec.Raw, buf)
				if err := ps.Put(blk); err != nil {
					b.Fatal(err)
				}
				return blk.Cid()
			}
			// sealActive pads the active volume with live blocks until it
			// rotates.
			sealActive := func(tag byte) {
				for i, n := 0, ps.VolumeCount(); ps.VolumeCount() == n; i++ {
					put(tag, i)
				}
			}
			cids := make([]cid.Cid, standing)
			for i := range cids {
				cids[i] = put('s', i)
				if j := i - perVolume; tc.spread > 0 && j >= 0 && j%3 == 0 {
					ps.Delete(cids[j])
				}
			}
			if tc.burst > 0 {
				sealActive('p')
				for i, c := range cids {
					if i%5 < 2 {
						ps.Delete(c)
					}
				}
				sealActive('q')
			}
			if err := ps.Close(); err != nil {
				b.Fatal(err)
			}

			cfg.VolumeSizeCap = 0
			if ps, err = block.NewPackStore(dir, cfg); err != nil {
				b.Fatal(err)
			}
			defer ps.Close()
			buf = make([]byte, 64)
			victims := make([]cid.Cid, b.N)
			for i := range victims {
				victims[i] = put('v', i)
			}
			volumes := ps.VolumeCount()
			if err := ps.CompactNow(); err != nil {
				b.Fatal(err)
			}
			if got := ps.VolumeCount(); got != volumes || volumes < 9 {
				b.Fatalf("set-up: %d volumes, %d after CompactNow; want >= 9 and nothing to compact", volumes, got)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ps.Delete(victims[i])
				if err := ps.CompactNow(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackStoreGet measures one Get of a 4 KiB block from a sealed
// pack volume: the index lookup under the shared lock, the copy out of
// the volume's mapping and the SHA-256 check that certifies the bytes.
// The blocks read span two sealed volumes, each read once before the
// timer starts, so ns/op is the Get's own cost, not a page fault's.
func BenchmarkPackStoreGet(b *testing.B) {
	ps, err := block.NewPackStore(b.TempDir(), block.PackConfig{VolumeSizeCap: 64 << 10, DisableBackground: true})
	if err != nil {
		b.Fatal(err)
	}
	defer ps.Close()
	data := make([]byte, 4<<10)
	cids := make([]cid.Cid, 64)
	for i := range cids {
		data[0] = byte(i)
		blk := block.New(multicodec.Raw, data)
		if err := ps.Put(blk); err != nil {
			b.Fatal(err)
		}
		cids[i] = blk.Cid()
	}
	if err := ps.Flush(); err != nil {
		b.Fatal(err)
	}
	if n := ps.VolumeCount(); n < 4 {
		b.Fatalf("set-up: %d volumes, want >= 4 so the first 32 blocks are sealed", n)
	}
	sealed := cids[:32]
	for _, c := range sealed {
		if _, err := ps.Get(c); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := ps.Get(sealed[i%len(sealed)])
		if err != nil || len(blk.Data()) != len(data) {
			b.Fatalf("Get = %d bytes, %v", len(blk.Data()), err)
		}
	}
}

// BenchmarkKBucketNearest measures closest-peer selection — what a
// responder does for every FIND_NODE / GET_PROVIDERS hop — at the table
// sizes the 2000-peer simnet (≈150 entries) and perfbench's isolated
// probe (500) see.
func BenchmarkKBucketNearest(b *testing.B) {
	for _, n := range []int{150, 500} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			table := kbucket.NewTable(peer.MustNewIdentity(rng).ID, 20)
			for i := 0; i < n; i++ {
				id := peer.MustNewIdentity(rng).ID
				table.Insert(id, kbucket.KeyForPeer(id))
			}
			key := kbucket.KeyForBytes([]byte("target"))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = table.NearestPeers(key, 20)
			}
		})
	}
}

// BenchmarkTestnetBuild measures testnet.Build of the 2 000-peer network
// sim_retrieve and the experiments run on: identities, simnet nodes and
// seeded routing tables and address books. Besides ms/op, allocs/op and
// B/op it reports the live heap objects per peer the built network holds
// after a collection — what every later GC cycle of a run has to mark.
func BenchmarkTestnetBuild(b *testing.B) {
	const n = 2000
	var live float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		tn := testnet.Build(testnet.Config{N: n, Seed: 1})
		b.StopTimer()
		runtime.GC()
		runtime.ReadMemStats(&after)
		live += (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
		runtime.KeepAlive(tn)
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed())/1e6/float64(b.N), "ms/op")
	b.ReportMetric(live/float64(b.N), "live-objects/peer")
}

// BenchmarkDHTWalkConverge measures whole FIND_NODE walks on a 300-peer
// event-driven simnet: virtual time makes the RPCs free, so what is
// left is the walk's own bookkeeping (closestUnqueried, converged,
// closestSeen) and the responders' NearestPeers.
func BenchmarkDHTWalkConverge(b *testing.B) {
	tn := testnet.Build(testnet.Config{N: 300, Seed: 1})
	walker := tn.AddVantage(geo.EuCentral1, 2).DHT()
	b.ReportAllocs()
	err := tn.Sched.Run(context.Background(), func(ctx context.Context) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := []byte(fmt.Sprintf("walk-target-%d", i))
			closest, _, err := walker.WalkClosest(ctx, kbucket.KeyForBytes(key), key)
			if err != nil || len(closest) == 0 {
				b.Errorf("walk %d: %d peers, err %v", i, len(closest), err)
				return
			}
		}
		b.StopTimer()
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerDispatch measures one sleep-and-wake — the event the
// simulator fires a hundred thousand times per run — while N other
// goroutines are parked far in the future, each sleeping under its own
// timeout as an RPC in flight does. The dispatcher looks only at what
// was marked, so ns/op and allocs/op at 20 000 parked stay within 1.3×
// of 2 000; when it asked every parked waiter at every instant, the
// cost grew with N.
func BenchmarkSchedulerDispatch(b *testing.B) {
	for _, parked := range []int{2000, 20000} {
		b.Run(fmt.Sprintf("parked=%d", parked), func(b *testing.B) {
			s := simtime.NewScheduler(nil, simtime.SchedulerOpts{})
			b.ReportAllocs()
			err := s.Run(context.Background(), func(ctx context.Context) {
				scope, release := s.WithCancel(ctx)
				g := simtime.NewGroup(s)
				for i := 0; i < parked; i++ {
					g.Go(scope, func(ctx context.Context) {
						tctx, cancel := s.WithTimeout(ctx, 48*time.Hour)
						defer cancel()
						s.Sleep(tctx, 24*time.Hour)
					})
				}
				s.Sleep(ctx, time.Second) // every sleeper has parked
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Sleep(ctx, time.Millisecond)
				}
				b.StopTimer()
				release()
				g.Wait(ctx)
			})
			if err != nil || s.Stalls() != 0 {
				b.Fatalf("run: %v, %d stalls", err, s.Stalls())
			}
		})
	}
}

// BenchmarkProviderStoreAdd measures what a DHT server pays per stored
// provider record. A million records from one publisher are added
// first (the store ends at its budget); what that state costs the
// collector is reported as heap objects per record held and the
// milliseconds of one full collection over it, and then b.N further
// Adds at the budget — each one an eviction and an insert — are timed.
func BenchmarkProviderStoreAdd(b *testing.B) {
	const prefill = 1_000_000
	provider := peer.MustNewIdentity(rand.New(rand.NewSource(1))).ID
	digest := make([]byte, 32)
	nextCid := func(i int) cid.Cid {
		digest[0], digest[1], digest[2], digest[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
		c, err := cid.New(cid.V1, multicodec.Raw, multihash.FromDigest(multicodec.SHA2_256, digest))
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	now := time.Unix(1_635_724_800, 0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	store := record.NewProviderStore(0, func() time.Time { return now })
	for i := 0; i < prefill; i++ {
		now = now.Add(time.Millisecond)
		store.Add(record.ProviderRecord{Cid: nextCid(i), Provider: provider, Published: now})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / float64(store.Len())
	gcStart := time.Now()
	runtime.GC()
	gcMS := float64(time.Since(gcStart).Microseconds()) / 1000

	fresh := make([]cid.Cid, b.N)
	for i := range fresh {
		fresh[i] = nextCid(prefill + i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, c := range fresh {
		now = now.Add(time.Millisecond)
		store.Add(record.ProviderRecord{Cid: c, Provider: provider, Published: now})
	}
	b.StopTimer()
	b.ReportMetric(gcMS, "gc-ms")
	b.ReportMetric(objects, "heap-objects/record")
	if store.Len() != record.MaxProviderRecords {
		b.Fatalf("store holds %d records, want the budget %d", store.Len(), record.MaxProviderRecords)
	}
}

// BenchmarkTraceRPCEvent is what one traced transport request costs the
// recorder: a fixed-size record appended under the trace lock. Nothing
// is formatted and nothing allocated but the span's slice growing
// (0 allocs/op amortised).
func BenchmarkTraceRPCEvent(b *testing.B) {
	remote := peer.MustNewIdentity(rand.New(rand.NewSource(1))).ID
	ctx, sp := telemetry.NewRecorder(nil).StartTrace(context.Background(), "retrieve")
	defer sp.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		telemetry.RPC(ctx, "GET_PROVIDERS", "lookup", remote, time.Millisecond, "")
	}
}

// BenchmarkTraceRetrieve is what recording one retrieve-shaped trace
// costs a node whose ring is full: a root and five phase spans
// (discover, bitswap-ask, want-wave, first-provider, fetch), 14
// attributes, 20 RPC events and one HAVE. Before timing, 16 recorders
// fill their rings (the 2 048 traces a 16-node tcp_pubret keeps), and
// what a retained trace costs the collector is reported as heap
// objects per trace after a collection.
func BenchmarkTraceRetrieve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var ids [4]peer.ID
	for i := range ids {
		ids[i] = peer.MustNewIdentity(rng).ID
	}
	root, err := cid.New(cid.V1, multicodec.Raw, multihash.FromDigest(multicodec.SHA2_256, make([]byte, 32)))
	if err != nil {
		b.Fatal(err)
	}
	cidStr, provider := root.String(), ids[0].String()
	record := func(rec *telemetry.Recorder) {
		ctx, tr := rec.StartTrace(context.Background(), "retrieve", telemetry.A("cid", cidStr), telemetry.A("router", "dht"))
		dctx, discover := telemetry.StartSpan(ctx, "discover")
		actx, ask := telemetry.StartSpan(dctx, "bitswap-ask")
		wctx, wave := telemetry.StartSpan(actx, "want-wave", telemetry.A("targets", "3"), telemetry.A("broadcast", "false"))
		for _, p := range ids[1:] {
			telemetry.RPC(wctx, "WANT_HAVE", "want", p, time.Millisecond, "")
		}
		wave.Have(ids[1], true)
		wave.End()
		ask.Annotate("routed", "true")
		ask.Annotate("consult-miss", "false")
		ask.End()
		for i := 0; i < 8; i++ {
			telemetry.RPC(dctx, "GET_PROVIDERS", "lookup", ids[i%len(ids)], time.Millisecond, "")
		}
		discover.Annotate("routed", "true")
		discover.Annotate("bitswap-hit", "true")
		discover.End()
		fpctx, fp := telemetry.StartSpan(ctx, "first-provider")
		fp.Annotate("provider", provider)
		telemetry.RPC(fpctx, "FIND_NODE", "lookup", ids[0], time.Millisecond, "")
		fp.Annotate("book", "false")
		fp.End()
		fctx, fetch := telemetry.StartSpan(ctx, "fetch")
		for i := 0; i < 8; i++ {
			telemetry.RPC(fctx, "WANT_BLOCK", "want", ids[1], time.Millisecond, "")
		}
		fetch.Annotate("blocks", "5")
		fetch.Annotate("failovers", "0")
		fetch.End()
		tr.Annotate("ok", "true")
		tr.Annotate("bytes", "1048576")
		tr.End()
	}
	const nodes, ring = 16, 128
	recs := make([]*telemetry.Recorder, nodes)
	for i := range recs {
		recs[i] = telemetry.NewRecorder(nil)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rec := range recs {
		for j := 0; j < ring; j++ {
			record(rec)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / (nodes * ring)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record(recs[i%nodes])
	}
	b.StopTimer()
	b.ReportMetric(objects, "live-objects/trace")
	runtime.KeepAlive(recs)
}

// benchSink keeps the compiler from dropping a measured call.
var benchSink []peer.ID

// BenchmarkWireMarshal measures message encode+decode round trips.
func BenchmarkWireMarshal(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var peers []wire.PeerInfo
	for i := 0; i < 20; i++ {
		peers = append(peers, wire.PeerInfo{ID: peer.MustNewIdentity(rng).ID})
	}
	msg := wire.Message{Type: wire.TNodes, Key: bytes.Repeat([]byte{9}, 34), Peers: peers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := msg.Marshal()
		if _, err := wire.Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireFrameBlock256K measures one served block's trip through
// the frame path the TCP transport uses: WriteFrame of a 256 KiB TBlock
// into a loopback socket, ReadFrame out of the other end. One op is one
// block; B/op counts both ends (one payload-sized buffer, the reader's).
func BenchmarkWireFrameBlock256K(b *testing.B) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(payload)
	msg := wire.Message{Type: wire.TBlock, Key: bytes.Repeat([]byte{9}, 36), BlockData: payload}
	n := b.N
	werr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			werr <- err
			return
		}
		defer c.Close()
		for i := 0; i < n; i++ {
			if err := wire.WriteFrame(c, msg); err != nil {
				werr <- err
				return
			}
		}
		werr <- nil
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < n; i++ {
		got, err := wire.ReadFrame(r)
		if err != nil || len(got.BlockData) != len(payload) {
			b.Fatalf("frame %d: %d bytes, %v", i, len(got.BlockData), err)
		}
	}
	b.StopTimer()
	if err := <-werr; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTCPRetrieve1MiB measures a whole Retrieve of a 1 MiB object
// (five blocks) between two connected TCP nodes in this process — the
// wire codec, the TCP framing, Bitswap, block construction, the store
// and the DAG assembly, without the DHT: the provider is a connected
// neighbour, so discovery is one WANT-HAVE. The requester's store is
// cleared after every op so each one fetches every block.
func BenchmarkTCPRetrieve1MiB(b *testing.B) {
	provider, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer provider.Close()
	requester, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer requester.Close()
	ctx := context.Background()
	if _, _, err := requester.Swarm().Connect(ctx, provider.ID(), provider.Addrs()); err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(4)).Read(data)
	root, err := provider.Add(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, _, err := requester.Retrieve(ctx, root)
		if err != nil || len(got) != len(data) {
			b.Fatalf("retrieve %d: %d bytes, %v", i, len(got), err)
		}
		requester.ClearStore()
	}
	b.StopTimer()
	if got, _, err := requester.Retrieve(ctx, root); err != nil || !bytes.Equal(got, data) {
		b.Fatalf("retrieved object differs from the one added: %v", err)
	}
}

// BenchmarkTCPJoin measures the join of a 16-node TCP mesh in this
// process, the shape of perfbench's tcp_pubret set-up: every node
// bootstraps off the other 15 (dials, identity handshakes and one
// self-walk each). Building and closing the nodes are not timed.
func BenchmarkTCPJoin(b *testing.B) {
	const n = 16
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nodes := make([]*ipfs.Node, n)
		infos := make([]ipfs.PeerInfo, n)
		for j := range nodes {
			node, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: int64(j + 1)})
			if err != nil {
				b.Fatal(err)
			}
			nodes[j], infos[j] = node, node.Info()
		}
		b.StartTimer()
		for j, node := range nodes {
			others := append(append([]ipfs.PeerInfo(nil), infos[:j]...), infos[j+1:]...)
			if err := node.Bootstrap(ctx, others); err != nil {
				b.Fatalf("bootstrap node %d: %v", j, err)
			}
		}
		b.StopTimer()
		for j, a := range nodes {
			for k, info := range infos {
				if j != k && !a.Swarm().Connected(info.ID) {
					b.Fatalf("node %d is not connected to node %d", j, k)
				}
			}
		}
		for _, node := range nodes {
			node.Close()
		}
		b.StartTimer()
	}
}

// BenchmarkGatewayServeHTTP measures one GET of a 64 KiB object through
// the gateway's HTTP face over a loopback socket, client included, for
// each serving tier: an nginx cache hit; a node-store hit, with an
// nginx cache too small to keep the object; and a network miss, from a
// gateway node whose store keeps no block either, streamed from a
// connected TCP origin over Bitswap.
func BenchmarkGatewayServeHTTP(b *testing.B) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(data)
	origin, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer origin.Close()
	root, err := origin.Add(data)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name, tier string // tier: the X-Ipfs-Gateway-Tier every timed answer must carry
		nginx      int64  // nginx cache bytes
		store      block.Store
		pin        bool
	}{
		{"nginx", "nginx cache", 1 << 20, nil, false},
		{"nodestore", "IPFS node store", 1, nil, true},
		{"network", "Non Cached", 1, block.NewLRUStore(1), false},
	} {
		b.Run(c.name, func(b *testing.B) {
			node, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: 2, Store: c.store})
			if err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			if _, _, err := node.Swarm().Connect(context.Background(), origin.ID(), origin.Addrs()); err != nil {
				b.Fatal(err)
			}
			gw := ipfs.NewTCPGateway(node, c.nginx)
			if c.pin {
				if _, err := gw.Pin(data); err != nil {
					b.Fatal(err)
				}
			}
			srv := httptest.NewServer(gw)
			defer srv.Close()
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
			defer client.CloseIdleConnections()
			url := srv.URL + "/ipfs/" + root.String()
			get := func(i int, want string) {
				resp, err := client.Get(url)
				if err != nil {
					b.Fatalf("GET %d: %v", i, err)
				}
				n, err := io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if tier := resp.Header.Get("X-Ipfs-Gateway-Tier"); err != nil || n != int64(len(data)) || tier != want && want != "" {
					b.Fatalf("GET %d: %d bytes from %q, %v; want %d from %q", i, n, tier, err, len(data), want)
				}
			}
			get(-1, "") // warm: fills the nginx cache, opens the connection
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get(i, c.tier)
			}
		})
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/geo"
	"repro/internal/kbucket"
	"repro/internal/merkledag"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/simtime"
	"repro/internal/telemetry"
	"repro/internal/testnet"
	"repro/internal/wire"
	"repro/ipfs"
)

// sink keeps probe results alive so the compiler cannot drop the call.
var sink any

// prober times isolated calls at fixed iteration counts and remembers
// the first error, after which it runs nothing more.
type prober struct {
	m     *measurement
	scale float64 // multiplies every iteration count (the smoke test shrinks it)
	err   error
}

// time runs fn full*scale times and returns nanoseconds and heap
// allocations per call.
func (p *prober) time(full int, fn func() error) (ns, allocs float64) {
	if p.err != nil {
		return 0, 0
	}
	iters := int(float64(full) * p.scale)
	if iters < 1 {
		iters = 1
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			p.err = err
			return 0, 0
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d) / float64(iters), float64(after.Mallocs-before.Mallocs) / float64(iters)
}

// ns times fn and records nanoseconds per call, divided by div, under name.
func (p *prober) ns(name string, div float64, full int, fn func() error) {
	v, _ := p.time(full, fn)
	p.m.set(name, v/div)
}

// runProbes measures single layers in isolation, at fixed iteration
// counts, on inputs shaped like the workloads' (a 20-peer NODES reply, a
// 256 KiB block, a 1 MiB object, a 500-peer routing table). They run in
// the traced run only and feed no end-to-end metric.
func runProbes(ctx context.Context, cfg *config, m *measurement) error {
	p := &prober{m: m, scale: cfg.sz.probeScale}
	rng := rand.New(rand.NewSource(mix64(cfg.seed, 900)))

	// Two TCP nodes: the transport probes, and real addresses for the
	// wire messages.
	a, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: mix64(cfg.seed, 901)})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: mix64(cfg.seed, 902)})
	if err != nil {
		return err
	}
	defer b.Close()

	// wire
	var peers []wire.PeerInfo
	for i := 0; i < 20; i++ {
		peers = append(peers, wire.PeerInfo{ID: peer.MustNewIdentity(rng).ID, Addrs: b.Addrs()})
	}
	chunk := make([]byte, chunkSize)
	rng.Read(chunk)
	chunkCid := cid.Sum(multicodec.Raw, chunk)
	nodesMsg := wire.Message{Type: wire.TNodes, Key: chunkCid.Bytes(), Peers: peers}
	blockMsg := wire.Message{Type: wire.TBlock, Key: chunkCid.Bytes(), BlockData: chunk}
	nodesRaw, blockRaw := nodesMsg.Marshal(), blockMsg.Marshal()
	unmarshal := func(raw []byte) func() error {
		return func() error {
			msg, err := wire.Unmarshal(raw)
			sink = msg
			return err
		}
	}
	mn, ma := p.time(20000, func() error { sink = nodesMsg.Marshal(); return nil })
	un, ua := p.time(20000, unmarshal(nodesRaw))
	m.set("wire.marshal_nodes_ns", mn)
	m.set("wire.unmarshal_nodes_ns", un)
	m.set("wire.roundtrip_allocs", ma+ua)
	p.ns("wire.marshal_block_ns", 1, 1000, func() error { sink = blockMsg.Marshal(); return nil })
	p.ns("wire.unmarshal_block_ns", 1, 1000, unmarshal(blockRaw))

	// cid
	v, _ := p.time(400, func() error { sink = cid.Sum(multicodec.Raw, chunk); return nil })
	m.set("cid.sum_256k_mb_per_s", ratio(float64(len(chunk))/1e6, v/1e9))
	text := chunkCid.String()
	p.ns("cid.parse_ns", 1, 50000, func() error {
		c, err := cid.Parse(text)
		sink = c
		return err
	})

	// merkledag
	object := make([]byte, 1<<20)
	rng.Read(object)
	store := block.NewMemStore()
	var root cid.Cid
	p.ns("merkledag.build_1m_ms", nsPerMs, 100, func() error {
		store.Clear()
		var err error
		root, err = merkledag.NewBuilder(store, 0, 0).Add(object)
		return err
	})
	p.ns("merkledag.assemble_1m_ms", nsPerMs, 200, func() error {
		data, err := merkledag.Assemble(store, root)
		if err == nil && len(data) != len(object) {
			err = fmt.Errorf("merkledag probe: assembled %d of %d bytes", len(data), len(object))
		}
		sink = data
		return err
	})

	// kbucket
	table := kbucket.NewTable(peer.MustNewIdentity(rng).ID, kbucket.DefaultK)
	for i := 0; i < 500; i++ {
		table.Add(peer.MustNewIdentity(rng).ID)
	}
	key := kbucket.KeyForBytes(chunkCid.Bytes())
	p.ns("kbucket.nearest_ns", 1, 20000, func() error {
		sink = table.NearestPeers(key, kbucket.DefaultK)
		return nil
	})

	// transport: one RPC on an open connection, then dial + handshake.
	want := wire.Message{Type: wire.TWantHave, Key: chunkCid.Bytes()}
	rpc := func() error {
		_, err := a.Swarm().Request(ctx, b.ID(), b.Addrs(), want)
		return err
	}
	p.time(1, rpc) // opens the connection
	p.ns("transport.tcp_rpc_rtt_us", nsPerUs, 5000, rpc)
	p.ns("transport.tcp_dial_ms", nsPerMs, 200, func() error {
		a.Swarm().Disconnect(b.ID())
		_, _, err := a.Swarm().Connect(ctx, b.ID(), b.Addrs())
		return err
	})

	// telemetry
	rec := telemetry.NewRecorder(nil)
	p.ns("telemetry.trace_ns", 1, 20000, func() error {
		tctx, root := rec.StartTrace(ctx, "probe")
		for i := 0; i < 3; i++ {
			_, sp := telemetry.StartSpan(tctx, "phase")
			sp.End()
		}
		root.End()
		return nil
	})

	p.scheduler(ctx)
	p.simnet(ctx, cfg.seed)
	return p.err
}

// scheduler times the event-driven scheduler's primitives: one Sleep
// (schedule, park, fire, wake), one Go+join, and the same Sleep with
// 1000 goroutines parked in Await beside it — the dispatcher polls
// waiter conditions at every quiescent instant, so the difference is the
// cost of that linear scan.
func (p *prober) scheduler(ctx context.Context) {
	inScheduler := func(body func(ctx context.Context, sched *simtime.Scheduler)) {
		if p.err != nil {
			return
		}
		sched := simtime.NewScheduler(simtime.NewClock(testnet.DefaultEpoch), simtime.SchedulerOpts{})
		err := sched.Run(ctx, func(ctx context.Context) { body(ctx, sched) })
		if err == nil && sched.Stalls() != 0 {
			err = fmt.Errorf("scheduler probe: %d stalls", sched.Stalls())
		}
		if p.err == nil {
			p.err = err
		}
	}
	sleeps := func(name string, waiters, full int) {
		inScheduler(func(ctx context.Context, sched *simtime.Scheduler) {
			var release atomic.Bool
			g := simtime.NewGroup(sched)
			for i := 0; i < waiters; i++ {
				g.Go(ctx, func(ctx context.Context) { sched.Await(ctx, release.Load) })
			}
			p.ns(name, 1, full, func() error { return sched.Sleep(ctx, time.Millisecond) })
			release.Store(true)
			g.Wait(ctx)
		})
	}
	sleeps("simtime.sleep_wake_ns", 0, 100000)
	sleeps("simtime.sleep_wake_1k_waiters_ns", 1000, 5000)
	inScheduler(func(ctx context.Context, sched *simtime.Scheduler) {
		p.ns("simtime.go_park_ns", 1, 50000, func() error {
			g := simtime.NewGroup(sched)
			g.Go(ctx, func(context.Context) {})
			g.Wait(ctx)
			return nil
		})
	})
}

// simnet times one simulated RPC between two well-behaved nodes: its
// latency events on the scheduler plus simnet's own bookkeeping.
func (p *prober) simnet(ctx context.Context, seed int64) {
	if p.err != nil {
		return
	}
	tn := testnet.Build(testnet.Config{
		N: 50, Seed: seed, EventDriven: true,
		FracDead: 1e-9, FracSlow: 1e-9, FracWSBroken: 1e-9,
	})
	a := tn.AddVantage(geo.AWSRegions[0], mix64(seed, 903))
	b := tn.AddVantage(geo.AWSRegions[1], mix64(seed, 904))
	want := wire.Message{Type: wire.TWantHave, Key: cid.Sum(multicodec.Raw, []byte("probe")).Bytes()}
	err := tn.Sched.Run(ctx, func(ctx context.Context) {
		rpc := func() error {
			_, err := a.Swarm().Request(ctx, b.ID(), b.Addrs(), want)
			return err
		}
		p.time(1, rpc) // dials
		p.ns("simnet.rpc_ns", 1, 20000, rpc)
	})
	if p.err == nil {
		p.err = err
	}
}

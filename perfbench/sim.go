package main

import (
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/simtime"
	"repro/internal/testnet"
	"repro/ipfs"
)

// networkShapeSeed fixes the simulated population — regions, behaviour
// classes, routing tables — for every run, as catalogShapeSeed fixes the
// gateway catalog: which peers are dead or slow moves the cost of a walk
// by more than the regression bounds. The run seed varies the vantage
// identities (their place in the key space and their routing tables),
// the object bytes (so CIDs and the peers closest to them) and which
// object each client asks for.
const networkShapeSeed = 1

// simEnv is one built sim_retrieve system: an event-driven simulated
// network with publisher and client vantage nodes attached.
type simEnv struct {
	cfg     *config
	tn      *testnet.Testnet
	pubs    []*core.Node
	clients []*core.Node
	buildS  float64
}

func setupSim(_ context.Context, cfg *config) (env, error) {
	sz := cfg.sz
	e := &simEnv{cfg: cfg}
	t0 := time.Now()
	e.tn = testnet.Build(testnet.Config{N: sz.simPeers, Seed: networkShapeSeed, EventDriven: true})
	e.buildS = time.Since(t0).Seconds()
	region := func(i int) geo.Region { return geo.AWSRegions[i%len(geo.AWSRegions)] }
	for i := 0; i < sz.simPublishers; i++ {
		e.pubs = append(e.pubs, e.tn.AddVantage(region(i), mix64(cfg.seed, uint64(i))))
	}
	for i := 0; i < sz.simClients; i++ {
		e.clients = append(e.clients, e.tn.AddVantage(region(i), mix64(cfg.seed, 1000+uint64(i))))
	}
	return e, nil
}

func (e *simEnv) close() {}

type simObject struct {
	data []byte
	crc  uint32
	cid  ipfs.Cid
}

// simActor is what one virtual-time actor measured. The lockstep
// scheduler runs one actor at a time, so an actor's wall-clock span
// around a call includes the turns of every other actor in flight.
type simActor struct {
	tally
	simS []float64 // simulated seconds per call
}

func (e *simEnv) run(ctx context.Context, m *measurement) error {
	cfg, sz := e.cfg, e.cfg.sz
	perClient := int(sz.simOpsPerSec*cfg.seconds + 0.5)
	if perClient < 1 {
		perClient = 1
	}
	rng := rand.New(rand.NewSource(mix64(cfg.seed, 100)))
	objs := make([]simObject, sz.simObjects)
	for i := range objs {
		objs[i].data = make([]byte, sz.simObjBytes)
		rng.Read(objs[i].data)
		objs[i].crc = crc32.Checksum(objs[i].data, castagnoli)
	}
	pubs := make([]simActor, len(e.pubs))
	clients := make([]simActor, len(e.clients))
	corrupt := cfg.corruptOp

	var pubWall, retWall time.Duration
	sched := e.tn.Sched
	m.mem.begin()
	start := time.Now()
	err := sched.Run(ctx, func(ctx context.Context) {
		g := simtime.NewGroup(sched)
		for p := range e.pubs {
			p := p
			g.Go(ctx, func(ctx context.Context) {
				a, spans := &pubs[p], m.tr.lane(p)
				// As a daemon does at start-up. Provider records carry
				// addresses for a limited simulated time only; after
				// that a retriever resolves the provider's PeerID
				// through this record.
				if err := e.pubs[p].PublishPeerRecord(ctx); err != nil {
					a.failed++
				}
				publish := func(op int, data []byte) (ipfs.Cid, bool) {
					t0 := time.Now()
					res, err := e.pubs[p].AddAndPublish(ctx, data)
					t1 := time.Now()
					if err != nil {
						a.failed++
						return ipfs.Cid{}, false
					}
					a.write.add(t1.Sub(t0))
					a.simS = append(a.simS, res.TotalDuration.Seconds())
					spans.add(op, 0, "sim-publish", t0, t1)
					return res.Cid, true
				}
				// Ballast first — objects nobody retrieves, so that the
				// write sample is a few hundred publishes, not 64 — then
				// this publisher's share of the retrievable objects,
				// which are therefore fresh when the clients start.
				ballast := make([]byte, sz.simObjBytes)
				fresh := rand.New(rand.NewSource(mix64(cfg.seed, 3000+uint64(p))))
				for i := 0; i < sz.simBallast/len(e.pubs); i++ {
					fresh.Read(ballast)
					publish(len(objs)+p*sz.simBallast+i, ballast)
				}
				for i := p; i < len(objs); i += len(e.pubs) {
					objs[i].cid, _ = publish(i, objs[i].data)
				}
			})
		}
		g.Wait(ctx)
		pubWall = time.Since(start)

		retStart := time.Now()
		g = simtime.NewGroup(sched)
		for c := range e.clients {
			c := c
			g.Go(ctx, func(ctx context.Context) {
				a, spans := &clients[c], m.tr.lane(len(e.pubs)+c)
				pick := rand.New(rand.NewSource(mix64(cfg.seed, 2000+uint64(c))))
				for i := 0; i < perClient; i++ {
					o := &objs[pick.Intn(len(objs))]
					if !o.cid.Defined() {
						a.failed++ // its publish failed
						continue
					}
					t0 := time.Now()
					data, res, err := e.clients[c].Retrieve(ctx, o.cid)
					t1 := time.Now()
					if corrupt && c == 0 && i == 0 && len(data) > 0 {
						data[len(data)/2] ^= 0xff
					}
					ok := err == nil && len(data) == len(o.data) && crc32.Checksum(data, castagnoli) == o.crc
					t2 := time.Now()
					e.clients[c].ClearStore()
					t3 := time.Now()
					if !ok {
						a.failed++
						continue
					}
					a.ok(len(data))
					a.read.add(t1.Sub(t0))
					a.simS = append(a.simS, res.Total.Seconds())
					op := c*perClient + i
					root := spans.reserve()
					spans.add(op, root, "sim-retrieve", t0, t1)
					spans.add(op, root, "verify", t1, t2)
					spans.add(op, root, "clear", t2, t3)
					spans.addAs(root, op, 0, "sim-op", t0, t3)
				}
			})
		}
		g.Wait(ctx)
		retWall = time.Since(retStart)
	})
	runWall := time.Since(start)
	m.mem.end()
	if err != nil {
		return fmt.Errorf("sim_retrieve: scheduler: %w", err)
	}

	var pubSim, retSim []float64
	for i := range pubs {
		m.merge(&pubs[i].tally)
		pubSim = append(pubSim, pubs[i].simS...)
	}
	for i := range clients {
		m.merge(&clients[i].tally)
		retSim = append(retSim, clients[i].simS...)
	}
	m.ttfb = m.read // Retrieve hands back the whole object
	m.window = retWall
	if m.tr == nil {
		return nil
	}

	events := float64(sched.Dispatched())
	budget := e.tn.Net.Budget()
	m.set("simtime.events", events)
	m.set("simtime.events_per_s", ratio(events, runWall.Seconds()))
	m.set("simtime.stalls", float64(sched.Stalls()))
	m.set("simnet.rpcs", float64(budget.Requests))
	m.set("simnet.rpcs_per_retrieve", ratio(float64(budget.Requests), float64(m.ops)))
	m.set("simnet.dropped", float64(budget.Dropped))
	m.set("simtime.mallocs_per_event", ratio(float64(m.mem.mallocs), events))
	m.set("simtime.alloc_kb_per_event", ratio(float64(m.mem.allocBytes)/1024, events))
	m.set("testnet.build_s", e.buildS)
	m.setN("core.sim_retrieve_p50_s", median(retSim), len(retSim))
	m.setN("core.sim_publish_p50_s", median(pubSim), len(pubSim))
	m.set("simtime.run_wall_s", runWall.Seconds())
	m.note("scheduler run %.3f s wall = publish phase %.3f + retrieve phase %.3f; %d retrievals, %d publishes, %.0f events, %d RPCs, %d stalls",
		runWall.Seconds(), pubWall.Seconds(), retWall.Seconds(), m.ops, len(m.write), events, budget.Requests, sched.Stalls())
	return nil
}

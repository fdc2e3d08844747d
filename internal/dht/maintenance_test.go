package dht

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/swarm"
	"repro/internal/wire"
)

func TestRefreshPopulatesSparseTable(t *testing.T) {
	tn := buildNet(t, 40, nil)
	// A newcomer knowing only two bootstrap peers.
	ident := peer.MustNewIdentity(rand.New(rand.NewSource(31337)))
	ep := tn.net.AddNode(ident.ID, simnet.NodeOpts{Region: geo.EuCentral1, Dialable: true})
	sw := swarm.New(ident, ep, tn.net.Time())
	d := New(ident, sw, ModeServer, Config{})
	ep.SetHandler(d.HandleMessage)
	for _, b := range tn.nodes[:2] {
		d.Seed(wire.PeerInfo{ID: b.ident.ID, Addrs: b.Swarm().Addrs()})
	}
	before := d.Table().Len()
	after := d.Refresh(context.Background(), 4, 1)
	if after <= before {
		t.Errorf("Refresh did not grow the table: %d -> %d", before, after)
	}
	if after < 20 {
		t.Errorf("table after refresh = %d, want a healthy fraction of the 40-peer network", after)
	}
}

func TestRefreshEvictsDeadEntries(t *testing.T) {
	tn := buildNet(t, 30, func(i int) simnet.Class {
		if i >= 20 {
			return simnet.DeadDial
		}
		return simnet.Normal
	})
	d := tn.nodes[0]
	if !d.Table().Contains(tn.nodes[25].ident.ID) {
		t.Skip("dead peer not in table for this seed")
	}
	d.Refresh(context.Background(), 6, 2)
	// Dead peers the walks touched must be gone.
	removed := 0
	for i := 20; i < 30; i++ {
		if !d.Table().Contains(tn.nodes[i].ident.ID) {
			removed++
		}
	}
	if removed == 0 {
		t.Error("Refresh evicted no dead entries")
	}
}

func TestStartMaintenanceLoopRuns(t *testing.T) {
	tn := buildNet(t, 20, nil)
	d := tn.nodes[0]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 10 simulated seconds at scale 0.0005 = 5ms real per tick.
	d.StartMaintenance(ctx, 10*time.Second, 7)
	time.Sleep(60 * time.Millisecond)
	cancel()
	if d.Table().Len() == 0 {
		t.Error("maintenance emptied the table")
	}
}

package dht

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/kbucket"
	"repro/internal/peer"
	"repro/internal/simnet"
	"repro/internal/simtime"
	"repro/internal/simtime/simtest"
	"repro/internal/swarm"
	"repro/internal/wire"
)

func TestRefreshPopulatesSparseTable(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 40, nil)
		// A newcomer knowing only two bootstrap peers.
		ident := peer.MustNewIdentity(rand.New(rand.NewSource(31337)))
		ep := tn.net.AddNode(ident.ID, simnet.NodeOpts{Region: geo.EuCentral1, Dialable: true})
		sw := swarm.New(ident, ep, tn.net.Time())
		d := New(ident, sw, ModeServer, Config{})
		ep.SetHandler(d.HandleMessage)
		for _, b := range tn.nodes[:2] {
			d.Seed(wire.PeerInfo{ID: b.ident.ID, Addrs: b.Swarm().Addrs()}, kbucket.KeyForPeer(b.ident.ID))
		}
		before := d.Table().Len()
		after := d.Refresh(ctx, 4, 1)
		if after <= before {
			t.Errorf("Refresh did not grow the table: %d -> %d", before, after)
		}
		if after < 20 {
			t.Errorf("table after refresh = %d, want a healthy fraction of the 40-peer network", after)
		}
	})
}

func TestRefreshEvictsDeadEntries(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 30, func(i int) simnet.Class {
			if i >= 20 {
				return simnet.DeadDial
			}
			return simnet.Normal
		})
		d := tn.nodes[0]
		if !d.Table().Contains(tn.nodes[25].ident.ID) {
			t.Skip("dead peer not in table for this seed")
		}
		d.Refresh(ctx, 6, 2)
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
	})
}

func TestStartMaintenanceLoopRuns(t *testing.T) {
	simtest.Run(t, func(ctx context.Context, s *simtime.Scheduler) {
		tn := buildNet(s, 20, nil)
		d := tn.nodes[0]
		mctx, cancel := context.WithCancel(ctx)
		defer cancel()
		d.StartMaintenance(mctx, 10*time.Second, 7)
		s.Sleep(ctx, time.Minute) // six ticks
		cancel()
		if d.Table().Len() == 0 {
			t.Error("maintenance emptied the table")
		}
	})
}

package dht

import (
	"context"
	"math/rand"
	"time"

	"repro/internal/kbucket"
	"repro/internal/simtime"
)

// Refresh performs random-key lookups to repopulate the routing table:
// one self-lookup plus nKeys walks toward uniformly random keys. Each
// walk adds every responsive peer it meets to the table and evicts the
// dead entries it trips over, the standard Kademlia bucket-refresh
// maintenance. It returns the table size afterwards.
func (d *DHT) Refresh(ctx context.Context, nKeys int, seed int64) int {
	if nKeys <= 0 {
		nKeys = 3
	}
	// Self-lookup first: densifies our own neighbourhood, which record
	// storage correctness depends on.
	selfKey := []byte(d.ident.ID)
	d.WalkClosest(ctx, kbucket.KeyForBytes(selfKey), selfKey)

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nKeys; i++ {
		var key [32]byte
		rng.Read(key[:])
		d.WalkClosest(ctx, kbucket.KeyForBytes(key[:]), key[:])
		if ctx.Err() != nil {
			break
		}
	}
	return d.table.Len()
}

// StartMaintenance runs the periodic housekeeping loop: bucket
// refreshes and provider-record garbage collection (expired records
// are dropped so the node never serves stale mappings, §3.1). interval
// is simulated time; <= 0 selects 1 h.
func (d *DHT) StartMaintenance(ctx context.Context, interval time.Duration, seed int64) {
	if interval <= 0 {
		interval = time.Hour
	}
	i := int64(0)
	simtime.Every(ctx, d.src, interval, interval, func(ctx context.Context) {
		d.Refresh(ctx, 2, seed+i)
		d.providers.GC()
		i++
	})
}

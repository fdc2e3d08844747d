package routing

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/cid"
	"repro/internal/kbucket"
	"repro/internal/wire"
)

// IndexerSet is the shard topology of a delegated-routing indexer
// deployment: the CID keyspace is partitioned by XOR distance over R
// shards — a CID belongs to the shard whose anchor key is closest —
// and each shard is served by a replica group of indexer nodes. The
// IndexerRouter routes publications and lookups to a CID's shard
// owners (fail-over runs down the replica list), and the shard's
// replicas gossip provider records among themselves so a replica that
// missed a publish window converges back to its group.
type IndexerSet struct {
	anchors []kbucket.Key
	groups  [][]wire.PeerInfo
	all     []wire.PeerInfo
}

// ShardAnchor derives shard i's keyspace anchor. Anchors are plain
// SHA256 of a shard label, so every participant — publishers, getters
// and the indexers themselves — computes the identical partition with
// no coordination.
func ShardAnchor(i int) kbucket.Key {
	return sha256.Sum256([]byte(fmt.Sprintf("indexer-shard-%d", i)))
}

// NewIndexerSet builds the topology from one replica group per shard
// (R = len(groups)). Empty groups are allowed — the shard simply has
// no owners and routes fall through to the DHT fallback.
func NewIndexerSet(groups [][]wire.PeerInfo) *IndexerSet {
	s := &IndexerSet{}
	for i, g := range groups {
		s.anchors = append(s.anchors, ShardAnchor(i))
		s.groups = append(s.groups, append([]wire.PeerInfo(nil), g...))
		s.all = append(s.all, g...)
	}
	return s
}

// Shards returns the shard count R.
func (s *IndexerSet) Shards() int { return len(s.groups) }

// ShardOfKey maps a DHT key to its owning shard: the anchor at minimal
// XOR distance. A set with no shards returns -1 (no owner).
func (s *IndexerSet) ShardOfKey(k kbucket.Key) int {
	if len(s.anchors) == 0 {
		return -1
	}
	best := 0
	bestDist := kbucket.XOR(k, s.anchors[0])
	for i := 1; i < len(s.anchors); i++ {
		if d := kbucket.XOR(k, s.anchors[i]); kbucket.Less(d, bestDist) {
			best, bestDist = i, d
		}
	}
	return best
}

// ShardOf maps a CID to its owning shard.
func (s *IndexerSet) ShardOf(c cid.Cid) int {
	return s.ShardOfKey(kbucket.KeyForBytes(c.Bytes()))
}

// Replicas returns shard i's replica group, primary first.
func (s *IndexerSet) Replicas(i int) []wire.PeerInfo {
	return append([]wire.PeerInfo(nil), s.groups[i]...)
}

// All returns every indexer in the set, shard-major.
func (s *IndexerSet) All() []wire.PeerInfo {
	return append([]wire.PeerInfo(nil), s.all...)
}

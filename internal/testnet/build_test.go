package testnet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"testing"

	"repro/internal/multiaddr"
	"repro/internal/peer"
)

// buildDigest hashes the network Build produced: every identity (its ID,
// public key and a signature, which covers the private key), every
// node's behaviour class, every node's routing table bucket by bucket in
// the table's own order, and every address book in recency order.
func buildDigest(tn *Testnet) string {
	h := sha256.New()
	writeID := func(h hash.Hash, id peer.ID) { fmt.Fprintf(h, "%d:%s", len(id), id) }
	for i, node := range tn.Nodes {
		ident := node.Identity()
		writeID(h, ident.ID)
		h.Write(ident.Public)
		h.Write(ident.Sign([]byte("build digest")))
		fmt.Fprintf(h, "class %d\n", tn.Classes[i])
		for _, id := range node.DHT().Table().AllPeers() {
			writeID(h, id)
		}
		h.Write([]byte("book\n"))
		node.Swarm().Book().Each(func(id peer.ID, addrs []multiaddr.Multiaddr) {
			writeID(h, id)
			for _, a := range addrs {
				fmt.Fprintf(h, "%d:%s", len(a.Bytes()), a.Bytes())
			}
		})
		h.Write([]byte("end\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wantBuildDigest is the digest of Build(Config{N: 2000, Seed: 1}) as
// the sequential builder produced it, before the tables were seeded in
// parallel: the fan-out must rebuild that network byte for byte.
const wantBuildDigest = "7d1c1eceda023033538444f19595db0ddc1611bdcc7fc2e8fe941a69bb9b084b"

// TestBuildReplaysPinnedDigest pins the network Build produces and shows it is
// the same on one OS thread and on four: every random draw is made on
// the calling goroutine, and each worker writes only its own node's
// table and book.
func TestBuildReplaysPinnedDigest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		if got := buildDigest(Build(Config{N: 2000, Seed: 1})); got != wantBuildDigest {
			t.Errorf("GOMAXPROCS=%d: Build(N=2000, Seed=1) digest %s, want %s", procs, got, wantBuildDigest)
		}
	}
}

// TestBuildLiveObjectsPerPeer bounds what a built network leaves on the
// heap for the collector to mark: after a GC, at most 200 live objects
// per peer (a routing table's buckets, an address book's slots and
// address lists, and the node's own components).
func TestBuildLiveObjectsPerPeer(t *testing.T) {
	const n = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tn := Build(Config{N: n, Seed: 1})
	runtime.GC()
	runtime.ReadMemStats(&after)
	perPeer := (float64(after.HeapObjects) - float64(before.HeapObjects)) / n
	runtime.KeepAlive(tn)
	t.Logf("Build(N=%d) leaves %.1f live heap objects per peer", n, perPeer)
	if perPeer > 200 {
		t.Errorf("Build(N=%d) leaves %.1f live heap objects per peer, want at most 200", n, perPeer)
	}
}

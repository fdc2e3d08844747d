package kbucket

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/peer"
)

// insert adds p under the key a caller would hand in.
func insert(table *Table, p peer.ID) bool { return table.Insert(p, KeyForPeer(p)) }

func newPeers(n int, seed int64) []peer.ID {
	rng := rand.New(rand.NewSource(seed))
	out := make([]peer.ID, n)
	for i := range out {
		out[i] = peer.MustNewIdentity(rng).ID
	}
	return out
}

func TestXORProperties(t *testing.T) {
	f := func(a, b [32]byte) bool {
		ka, kb := Key(a), Key(b)
		// Symmetry and identity.
		if XOR(ka, kb) != XOR(kb, ka) {
			return false
		}
		return XOR(ka, ka) == Key{}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCommonPrefixLen(t *testing.T) {
	a := Key{}
	b := Key{}
	if CommonPrefixLen(a, b) != 256 {
		t.Error("identical keys should share 256 bits")
	}
	b[0] = 0x80
	if got := CommonPrefixLen(a, b); got != 0 {
		t.Errorf("first-bit difference: cpl = %d", got)
	}
	b[0] = 0x01
	if got := CommonPrefixLen(a, b); got != 7 {
		t.Errorf("eighth-bit difference: cpl = %d", got)
	}
	b[0] = 0
	b[5] = 0x10
	if got := CommonPrefixLen(a, b); got != 5*8+3 {
		t.Errorf("cpl = %d, want 43", got)
	}
}

func TestAddAndContains(t *testing.T) {
	peers := newPeers(10, 1)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		if !insert(table, p) {
			t.Errorf("Add(%s) rejected", p.Short())
		}
	}
	if table.Len() != 9 {
		t.Errorf("Len = %d, want 9", table.Len())
	}
	for _, p := range peers[1:] {
		if !table.Contains(p) {
			t.Errorf("Contains(%s) = false", p.Short())
		}
	}
	if insert(table, peers[0]) {
		t.Error("table must not add the local peer")
	}
	if table.Contains(peers[0]) {
		t.Error("local peer must not appear")
	}
}

func TestAddIdempotent(t *testing.T) {
	peers := newPeers(3, 2)
	table := NewTable(peers[0], 20)
	insert(table, peers[1])
	insert(table, peers[1])
	if table.Len() != 1 {
		t.Errorf("duplicate Add should not grow the table: %d", table.Len())
	}
}

func TestBucketCapacity(t *testing.T) {
	// With k=2, each bucket holds at most 2 peers.
	peers := newPeers(200, 3)
	table := NewTable(peers[0], 2)
	for _, p := range peers[1:] {
		insert(table, p)
	}
	for cpl, size := range table.BucketSizes() {
		if size > 2 {
			t.Errorf("bucket %d has %d entries, cap 2", cpl, size)
		}
	}
}

func TestRemove(t *testing.T) {
	peers := newPeers(5, 4)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		insert(table, p)
	}
	table.Remove(peers[2])
	if table.Contains(peers[2]) {
		t.Error("Remove failed")
	}
	if table.Len() != 3 {
		t.Errorf("Len = %d, want 3", table.Len())
	}
	table.Remove(peers[2]) // removing twice is a no-op
}

func TestNearestPeersOrdering(t *testing.T) {
	peers := newPeers(60, 5)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		insert(table, p)
	}
	target := KeyForBytes([]byte("some cid"))
	nearest := table.NearestPeers(target, 10)
	if len(nearest) != 10 {
		t.Fatalf("NearestPeers returned %d", len(nearest))
	}
	for i := 1; i < len(nearest); i++ {
		if Closer(nearest[i], nearest[i-1], target) {
			t.Errorf("NearestPeers not sorted at %d", i)
		}
	}
	// Verify against a brute-force answer over the table's contents.
	all := table.AllPeers()
	SortByDistance(all, target)
	for i := 0; i < 10; i++ {
		if all[i] != nearest[i] {
			t.Errorf("NearestPeers[%d] = %s, brute force = %s", i, nearest[i].Short(), all[i].Short())
		}
	}
}

func TestNearestPeersFewerThanCount(t *testing.T) {
	peers := newPeers(4, 6)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		insert(table, p)
	}
	if got := table.NearestPeers(KeyForPeer(peers[1]), 50); len(got) != 3 {
		t.Errorf("NearestPeers = %d peers, want 3", len(got))
	}
}

func TestKeySpaceSharedBetweenCidsAndPeers(t *testing.T) {
	// §2.3: CIDs and PeerIDs are indexed by the SHA256 of their binary
	// representation, so both map into the same 256-bit key space.
	ids := newPeers(2, 7)
	if KeyForPeer(ids[0]) != KeyForBytes([]byte(ids[0])) {
		t.Error("peer keys must be the SHA256 of the binary PeerID")
	}
	if KeyForPeer(ids[0]) == KeyForPeer(ids[1]) {
		t.Error("distinct peers must map to distinct DHT keys")
	}
	// Ids longer than a PeerID take KeyForPeer's copying path.
	long := peer.ID(strings.Repeat("x", 100))
	if KeyForPeer(long) != KeyForBytes([]byte(long)) {
		t.Error("long ids must hash the same way")
	}
}

func TestQuickNearestIsGlobalMinimum(t *testing.T) {
	peers := newPeers(40, 8)
	table := NewTable(peers[0], 20)
	for _, p := range peers[1:] {
		insert(table, p)
	}
	f := func(seed [8]byte) bool {
		target := KeyForBytes(seed[:])
		nearest := table.NearestPeers(target, 1)
		if len(nearest) != 1 {
			return false
		}
		for _, p := range table.AllPeers() {
			if Closer(p, nearest[0], target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDefaultK(t *testing.T) {
	table := NewTable(newPeers(1, 9)[0], 0)
	if table.K() != DefaultK {
		t.Errorf("K = %d, want %d", table.K(), DefaultK)
	}
}

// referenceNearest is NearestPeers written the obvious way: hash every
// id in the table, sort all of them by distance, truncate.
func referenceNearest(table *Table, target Key, count int) []peer.ID {
	all := table.AllPeers()
	sort.Slice(all, func(i, j int) bool {
		return Less(XOR(KeyForBytes([]byte(all[i])), target), XOR(KeyForBytes([]byte(all[j])), target))
	})
	if len(all) > count {
		all = all[:count]
	}
	return all
}

// checkStoredKeys asserts the invariant the cached keys rest on: every
// entry's Key is the hash of its ID, and it sits in that key's bucket.
func checkStoredKeys(t *testing.T, table *Table) {
	t.Helper()
	for idx, bucket := range table.buckets {
		for _, e := range bucket {
			if e.Key != KeyForPeer(e.ID) {
				t.Fatalf("entry %s stores a key that is not its hash", e.ID.Short())
			}
			if table.bucketIndex(e.Key) != idx {
				t.Fatalf("entry %s is in bucket %d, its key belongs in %d", e.ID.Short(), idx, table.bucketIndex(e.Key))
			}
		}
	}
}

// TestNearestPeersMatchesBruteForce: after random removes and refreshing
// adds, selection over stored keys returns exactly what hashing and
// sorting the whole table returns, element for element.
func TestNearestPeersMatchesBruteForce(t *testing.T) {
	for _, n := range []int{0, 1, 19, 20, 21, 500} {
		rng := rand.New(rand.NewSource(int64(100 + n)))
		peers := newPeers(n+1, int64(n))
		table := NewTable(peers[0], DefaultK)
		for _, p := range peers[1:] {
			insert(table, p)
			checkStoredKeys(t, table)
		}
		for i := 0; i < n/2; i++ {
			p := peers[1+rng.Intn(n)]
			if rng.Intn(3) == 0 {
				table.Remove(p)
			} else {
				insert(table, p) // a refresh when present, a re-add when removed
			}
			checkStoredKeys(t, table)
		}
		size := table.Len()
		for i := 0; i < 200; i++ {
			var target Key
			rng.Read(target[:])
			switch i % 4 {
			case 1: // the key of a peer in the table, or the local key itself
				target = KeyForPeer(peers[rng.Intn(n+1)])
			case 2: // the local key with one bit flipped: every sweep start
				target = KeyForPeer(peers[0])
				bit := rng.Intn(NumBuckets)
				target[bit/8] ^= 0x80 >> (bit % 8)
			}
			for _, count := range []int{1, 20, 50, size + 5} {
				got, want := table.NearestPeers(target, count), referenceNearest(table, target, count)
				if len(got) != len(want) {
					t.Fatalf("n=%d count=%d: got %d peers, want %d", n, count, len(got), len(want))
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("n=%d count=%d: NearestPeers[%d] = %s, brute force = %s", n, count, j, got[j].Short(), want[j].Short())
					}
				}
			}
		}
	}
}

// TestInsertKeepsTheDiet: re-inserting a peer already present — what
// every answered walk query and every identified inbound RPC does —
// rotates its bucket in place and allocates nothing, and the bucket
// list ends at the highest bucket in use.
func TestInsertKeepsTheDiet(t *testing.T) {
	peers := newPeers(301, 11)
	table := NewTable(peers[0], DefaultK)
	for _, p := range peers[1:] {
		insert(table, p)
	}
	present := table.AllPeers()[0]
	key := KeyForPeer(present)
	if allocs := testing.AllocsPerRun(1000, func() { table.Insert(present, key) }); allocs != 0 {
		t.Errorf("Insert of a present peer allocates %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { table.Add(present) }); allocs != 0 {
		t.Errorf("Add of a present peer allocates %.0f times", allocs)
	}
	checkStoredKeys(t, table)
	highest := -1
	for i, b := range table.buckets {
		if len(b) > 0 {
			highest = i
		}
	}
	if len(table.buckets) != highest+1 {
		t.Errorf("%d buckets held, the highest in use is %d", len(table.buckets), highest)
	}
}

// TestNearestPeersAllocs bounds what a lookup hop allocates on the
// responder: the selection scratch and the result, whatever the table size.
func TestNearestPeersAllocs(t *testing.T) {
	peers := newPeers(501, 10)
	table := NewTable(peers[0], DefaultK)
	for _, p := range peers[1:] {
		insert(table, p)
	}
	target := KeyForBytes([]byte("some cid"))
	if allocs := testing.AllocsPerRun(100, func() { table.NearestPeers(target, DefaultK) }); allocs > 4 {
		t.Errorf("NearestPeers allocates %.0f times per call, want <= 4", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { KeyForPeer(peers[1]) }); allocs != 0 {
		t.Errorf("KeyForPeer allocates %.0f times per call, want 0", allocs)
	}
}

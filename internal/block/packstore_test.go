package block

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/multicodec"
	"repro/internal/telemetry"
)

func newPackStore(t *testing.T, dir string, cfg PackConfig) *PackStore {
	t.Helper()
	cfg.DisableBackground = true
	s, err := NewPackStore(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func packBlock(i int) Block {
	return New(multicodec.Raw, []byte(fmt.Sprintf("pack-block-%04d-%s", i, "xxxxxxxxxxxxxxxx")))
}

func volumeFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "pack-*.vol"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// loopCompactNow runs CompactNow back to back on its own goroutine, the
// way a busy background loop would; the returned function stops it and
// waits for it to exit.
func loopCompactNow(t *testing.T, s *PackStore) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
				if err := s.CompactNow(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// TestPackStoreReopenRebuildsIndex: the index is purely in-memory, so
// everything must come back from the volume-header scan.
func TestPackStoreReopenRebuildsIndex(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{})
	var blocks []Block
	for i := 0; i < 50; i++ {
		b := packBlock(i)
		blocks = append(blocks, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	deleted := blocks[3]
	s.Delete(deleted.Cid())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := newPackStore(t, dir, PackConfig{})
	if r.Len() != len(blocks)-1 {
		t.Fatalf("Len after reopen = %d, want %d", r.Len(), len(blocks)-1)
	}
	if r.Has(deleted.Cid()) {
		t.Fatal("tombstoned block resurrected on reopen")
	}
	for i, b := range blocks {
		if i == 3 {
			continue
		}
		got, err := r.Get(b.Cid())
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if string(got.Data()) != string(b.Data()) {
			t.Fatalf("block %d data mismatch", i)
		}
	}
}

// TestPackStoreCrashRecoveryTornTail simulates a crash mid-append:
// truncating the active volume inside the last record must lose only
// that record, and the reopened store must keep appending cleanly.
func TestPackStoreCrashRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{})
	var blocks []Block
	for i := 0; i < 20; i++ {
		b := packBlock(i)
		blocks = append(blocks, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	vols := volumeFiles(t, dir)
	if len(vols) != 1 {
		t.Fatalf("volumes = %d, want 1", len(vols))
	}
	st, err := os.Stat(vols[0])
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the final record: its header survives but
	// the payload is short, which must read as a torn tail.
	if err := os.Truncate(vols[0], st.Size()-7); err != nil {
		t.Fatal(err)
	}

	r := newPackStore(t, dir, PackConfig{})
	last := blocks[len(blocks)-1]
	if r.Has(last.Cid()) {
		t.Fatal("torn tail record survived the scan")
	}
	if r.Len() != len(blocks)-1 {
		t.Fatalf("Len = %d, want %d", r.Len(), len(blocks)-1)
	}
	for _, b := range blocks[:len(blocks)-1] {
		if _, err := r.Get(b.Cid()); err != nil {
			t.Fatalf("pre-tear block lost: %v", err)
		}
	}
	// The truncated tail must not poison subsequent appends.
	nb := packBlock(999)
	if err := r.Put(nb); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := newPackStore(t, dir, PackConfig{})
	if _, err := r2.Get(nb.Cid()); err != nil {
		t.Fatalf("post-recovery append lost: %v", err)
	}
	if _, err := r2.Get(last.Cid()); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn record = %v, want ErrNotFound", err)
	}
}

// TestPackStoreGarbageTailTolerated: random garbage appended to the
// active volume (a torn header rather than a torn payload) is skipped.
func TestPackStoreGarbageTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{})
	b := packBlock(1)
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(volumeFiles(t, dir)[0], os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("not a record header at all")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := newPackStore(t, dir, PackConfig{})
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	if _, err := r.Get(b.Cid()); err != nil {
		t.Fatal(err)
	}
}

// TestPackStoreRotation: puts past the volume size cap must spill into
// new volume files, all of them readable.
func TestPackStoreRotation(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 512})
	var blocks []Block
	for i := 0; i < 40; i++ {
		b := packBlock(i)
		blocks = append(blocks, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(volumeFiles(t, dir)); n < 3 {
		t.Fatalf("volume files = %d, want >= 3 with a 512-byte cap", n)
	}
	for _, b := range blocks {
		if _, err := s.Get(b.Cid()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPackStoreCompactionReclaims: deleting most blocks must make the
// early volumes compactable; compaction keeps every live block
// readable, reclaims the dead bytes and removes volume files.
func TestPackStoreCompactionReclaims(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 1024, CompactThreshold: 0.3})
	var blocks []Block
	for i := 0; i < 100; i++ {
		b := packBlock(i)
		blocks = append(blocks, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	volsBefore := len(volumeFiles(t, dir))
	// Delete three of every four blocks.
	var live []Block
	for i, b := range blocks {
		if i%4 == 0 {
			live = append(live, b)
			continue
		}
		s.Delete(b.Cid())
	}
	deadBefore := s.DeadBytes()
	if deadBefore == 0 {
		t.Fatal("deletes recorded no dead bytes")
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if got := s.DeadBytes(); got >= deadBefore {
		t.Fatalf("dead bytes not reclaimed: %d -> %d", deadBefore, got)
	}
	if volsAfter := len(volumeFiles(t, dir)); volsAfter >= volsBefore {
		t.Fatalf("volume files not removed: %d -> %d", volsBefore, volsAfter)
	}
	if s.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(live))
	}
	for _, b := range live {
		got, err := s.Get(b.Cid())
		if err != nil {
			t.Fatalf("live block lost by compaction: %v", err)
		}
		if string(got.Data()) != string(b.Data()) {
			t.Fatal("live block corrupted by compaction")
		}
	}
	// The compacted state must also survive a reopen (moved records and
	// rewritten tombstones replay correctly).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newPackStore(t, dir, PackConfig{})
	if r.Len() != len(live) {
		t.Fatalf("Len after reopen = %d, want %d", r.Len(), len(live))
	}
	for _, b := range live {
		if _, err := r.Get(b.Cid()); err != nil {
			t.Fatalf("live block lost across reopen: %v", err)
		}
	}
}

// TestPackStoreCompactionPreservesTombstones: compacting the volume
// that holds a tombstone while an older volume still holds the put
// record must rewrite the tombstone — otherwise a reopen would replay
// the stale put and resurrect deleted data.
func TestPackStoreCompactionPreservesTombstones(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 400, CompactThreshold: 0.9})
	victim := packBlock(0)
	if err := s.Put(victim); err != nil {
		t.Fatal(err)
	}
	// Fill volume 0 past the cap so the tombstone lands in a later one.
	var fillers []Block
	for i := 1; i < 30; i++ {
		b := packBlock(i)
		fillers = append(fillers, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	s.Delete(victim.Cid())
	tombVol := s.activeID // the tombstone is in the current active volume
	// Roll the active volume forward so the tombstone's volume seals.
	for i := 30; i < 60; i++ {
		if err := s.Put(packBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.activeID == tombVol {
		t.Fatalf("tombstone volume %d never sealed", tombVol)
	}
	// Make the tombstone's volume maximally dead so it compacts first,
	// while volume 0 (holding victim's put record) stays below the 0.9
	// threshold and survives.
	for _, b := range fillers {
		if loc, ok := s.index[b.cid.Key()]; ok && loc.vol == tombVol {
			s.Delete(b.Cid())
		}
	}
	if err := s.compactVolume(s.volumes[tombVol]); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.volumes[0]; !ok {
		t.Fatal("test premise broken: volume 0 was compacted away")
	}
	if s.Has(victim.Cid()) {
		t.Fatal("victim live before reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newPackStore(t, dir, PackConfig{})
	if r.Has(victim.Cid()) {
		t.Fatal("deleted block resurrected: tombstone dropped by compaction")
	}
}

// TestPackStoreDeleteThenReputSurvivesCompactionAndReopen: a re-put
// key must drop its obsolete tombstone during compaction rather than
// have the rewrite kill the live block.
func TestPackStoreDeleteThenReputSurvivesCompactionAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 400, CompactThreshold: 0.2})
	b := packBlock(0)
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	s.Delete(b.Cid())
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	// Seal the volume holding put+tombstone+reput, then compact it.
	for i := 1; i < 40; i++ {
		if err := s.Put(packBlock(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b.Cid()); err != nil {
		t.Fatalf("re-put block lost after compaction: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newPackStore(t, dir, PackConfig{})
	if _, err := r.Get(b.Cid()); err != nil {
		t.Fatalf("re-put block lost after reopen: %v", err)
	}
}

// TestPackStorePinBlocksDelete mirrors MemStore's pin semantics.
func TestPackStorePinBlocksDelete(t *testing.T) {
	s := newPackStore(t, t.TempDir(), PackConfig{})
	b := packBlock(0)
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	s.Pin(b.Cid())
	if !s.Pinned(b.Cid()) {
		t.Fatal("Pinned = false after Pin")
	}
	s.Delete(b.Cid())
	if !s.Has(b.Cid()) {
		t.Fatal("pinned block deleted")
	}
	s.Unpin(b.Cid())
	s.Delete(b.Cid())
	if s.Has(b.Cid()) {
		t.Fatal("unpinned block survived Delete")
	}
}

// TestPackStoreDetectsCorruption: flipping payload bytes on disk must
// surface as an error from Get (self-certification), not bad data.
func TestPackStoreDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{})
	b := packBlock(0)
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the payload (the tail of the only record).
	vol := volumeFiles(t, dir)[0]
	raw, err := os.ReadFile(vol)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(vol, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b.Cid()); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get on corrupt record = %v, want corruption error", err)
	}
}

// TestPackStoreMetrics: a wired registry sees put/get counters, the
// read-latency histogram and the live/dead gauges.
func TestPackStoreMetrics(t *testing.T) {
	s := newPackStore(t, t.TempDir(), PackConfig{})
	reg := telemetry.NewRegistry()
	s.SetMetrics(reg)
	b := packBlock(0)
	if err := s.Put(b); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(b.Cid()); err != nil {
		t.Fatal(err)
	}
	s.Delete(packBlock(1).Cid()) // miss: no counter, no panic
	snap := reg.Snapshot()
	if snap.Counters["blockstore_puts{store=pack}"] != 1 {
		t.Errorf("puts counter = %v", snap.Counters["blockstore_puts{store=pack}"])
	}
	if snap.Counters["blockstore_gets{store=pack}"] != 1 {
		t.Errorf("gets counter = %v", snap.Counters["blockstore_gets{store=pack}"])
	}
	if snap.Latencies["pack_read_seconds"].Count != 1 {
		t.Errorf("read histogram count = %d", snap.Latencies["pack_read_seconds"].Count)
	}
	if snap.Gauges["pack_live_bytes"] <= 0 {
		t.Errorf("live bytes gauge = %v", snap.Gauges["pack_live_bytes"])
	}
	if snap.Gauges["pack_volumes"] != 1 {
		t.Errorf("volumes gauge = %v", snap.Gauges["pack_volumes"])
	}
}

// TestPackStoreConcurrentStress hammers Put/Get/Delete from many
// goroutines while a compactor loops, under small volumes so rotation
// and compaction happen constantly. Run with -race in CI; the
// invariant checked throughout is that a Get never returns wrong data
// and the final index matches a sequential replay.
func TestPackStoreConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 2048, CompactThreshold: 0.3})
	const workers = 4
	const perWorker = 300
	var wg sync.WaitGroup
	stopCompactor := loopCompactNow(t, s)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				// Overlapping key space across workers: concurrent
				// same-CID puts and deletes are part of the test.
				b := packBlock(rng.Intn(100))
				switch rng.Intn(4) {
				case 0, 1:
					if err := s.Put(b); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 2:
					got, err := s.Get(b.Cid())
					if err == nil && string(got.Data()) != string(b.Data()) {
						t.Error("get returned wrong data")
						return
					}
					if err != nil && !errors.Is(err, ErrNotFound) {
						t.Errorf("get: %v", err)
						return
					}
				case 3:
					s.Delete(b.Cid())
				}
			}
		}(w)
	}
	// Stop the compactor only after the workers are done.
	wg.Wait()
	stopCompactor()

	// Whatever survived must read back correctly and survive a reopen —
	// the same set of keys, not just as many.
	liveBefore := s.Len()
	present := make(map[int]bool)
	for i := 0; i < 100; i++ {
		b := packBlock(i)
		got, err := s.Get(b.Cid())
		if err == nil && string(got.Data()) != string(b.Data()) {
			t.Fatal("corrupt block after stress")
		}
		present[i] = err == nil
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newPackStore(t, dir, PackConfig{})
	if r.Len() != liveBefore {
		t.Errorf("reopen Len = %d, want %d", r.Len(), liveBefore)
	}
	for i := 0; i < 100; i++ {
		if got := r.Has(packBlock(i).Cid()); got != present[i] {
			t.Errorf("block %d: present after reopen = %v, before Close = %v", i, got, present[i])
		}
	}
}

// TestPackStoreDeleteRacesCompactionNoResurrect: Deletes running in the
// order the compactor copies (oldest first) while CompactNow loops must
// not leave a put record after its tombstone on disk — a reopen may
// bring back nothing a Delete returned from. Fresh Puts ride between
// the Deletes as in a node's steady state: they pace the deleter so the
// compactor keeps meeting it inside a volume, and they keep the volumes
// that receive the copies live enough to survive until the reopen.
func TestPackStoreDeleteRacesCompactionNoResurrect(t *testing.T) {
	const (
		rounds        = 4
		preload       = 400
		deletes       = 300
		putsPerDelete = 4
	)
	for round := 0; round < rounds; round++ {
		dir := t.TempDir()
		s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 4096, CompactThreshold: 0.3})
		rng := rand.New(rand.NewSource(int64(round)))
		var all []Block
		put := func() {
			data := make([]byte, 48+rng.Intn(80))
			rng.Read(data)
			copy(data, fmt.Sprintf("r%d-%05d", round, len(all)))
			b := New(multicodec.Raw, data)
			if err := s.Put(b); err != nil {
				t.Fatal(err)
			}
			all = append(all, b)
		}
		for i := 0; i < preload; i++ {
			put()
		}
		stopCompactor := loopCompactNow(t, s)
		for i := 0; i < deletes; i++ {
			s.Delete(all[i].Cid())
			for j := 0; j < putsPerDelete; j++ {
				put()
			}
		}
		stopCompactor()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		r := newPackStore(t, dir, PackConfig{})
		back := 0
		for _, b := range all[:deletes] {
			if r.Has(b.Cid()) {
				back++
			}
		}
		if back > 0 {
			t.Errorf("round %d: %d of %d deleted blocks are back after reopen", round, back, deletes)
		}
		for i, b := range all[deletes:] {
			got, err := r.Get(b.Cid())
			if err != nil {
				t.Fatalf("round %d: survivor %d: %v", round, deletes+i, err)
			}
			if string(got.Data()) != string(b.Data()) {
				t.Fatalf("round %d: survivor %d reads back different bytes", round, deletes+i)
			}
		}
	}
}

// modelBlock is key i of the model test: payloads of 10–100 bytes, so
// records straddle the 1–2 KiB volumes unevenly.
func modelBlock(i int) Block {
	return New(multicodec.Raw, []byte(fmt.Sprintf("model-%02d-%s", i, strings.Repeat("x", i*7%91))))
}

// refCompactCandidate is compactCandidate the way it was first written:
// walk every tombstone of every sealed volume and ask every other
// volume's stale set whether it is still needed. Oldest volume on a tie.
func refCompactCandidate(s *PackStore) *packVolume {
	ids := make([]int, 0, len(s.volumes))
	for id := range s.volumes {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var best *packVolume
	var bestRatio float64
	for _, id := range ids {
		v := s.volumes[id]
		size := v.size.Load()
		if id == s.activeID || size == 0 {
			continue
		}
		reclaim := v.dead.Load()
		for key := range v.tombs {
			if _, live := s.index[key]; live {
				continue
			}
			for wid, w := range s.volumes {
				if _, ok := w.stale[key]; ok && wid != id {
					reclaim -= packRecLen(key, 0)
					break
				}
			}
		}
		if ratio := float64(reclaim) / float64(size); ratio >= s.cfg.CompactThreshold && ratio > bestRatio {
			best, bestRatio = v, ratio
		}
	}
	return best
}

// checkPackInvariants asserts the bookkeeping contract the O(1)
// tombstoneNeeded and the O(volumes) candidate scan rest on. The store
// must be quiescent.
func checkPackInvariants(t *testing.T, s *PackStore) {
	t.Helper()
	want := make(map[string]int)
	for _, v := range s.volumes {
		for key := range v.stale {
			want[key]++
		}
	}
	for key, n := range s.staleRefs {
		if n <= 0 {
			t.Errorf("staleRefs[%x] = %d: zero or negative entry kept", key, n)
		}
		if n != want[key] {
			t.Errorf("staleRefs[%x] = %d, but %d volumes hold a stale put for it", key, n, want[key])
		}
	}
	for key, n := range want {
		if _, ok := s.staleRefs[key]; !ok {
			t.Errorf("staleRefs misses %x, stale in %d volumes", key, n)
		}
	}
	for key, loc := range s.index {
		v := s.volumes[loc.vol]
		if v == nil {
			t.Errorf("index[%x] points into volume %d, which does not exist", key, loc.vol)
		} else if end := loc.off + int64(loc.n); end > v.size.Load() {
			t.Errorf("index[%x] ends at %d, past volume %d's %d bytes", key, end, loc.vol, v.size.Load())
		}
	}
	got, ref := s.compactCandidate(), refCompactCandidate(s)
	if got != ref {
		id := func(v *packVolume) int {
			if v == nil {
				return -1
			}
			return v.id
		}
		t.Errorf("compactCandidate = volume %d, reference = volume %d (-1 is none)", id(got), id(ref))
	}
}

// TestPackStoreModel drives seeded random operation sequences against
// a MemStore oracle holding the same pins, and after every step checks
// both what the store answers and what it keeps (checkPackInvariants) —
// across reopens too, where everything is rebuilt from the volumes.
func TestPackStoreModel(t *testing.T) {
	const (
		steps = 400
		keys  = 64
	)
	seeds := 24
	if testing.Short() {
		seeds = 3
	}
	blocks := make([]Block, keys)
	for i := range blocks {
		blocks[i] = modelBlock(i)
	}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			dir := t.TempDir()
			cfg := PackConfig{VolumeSizeCap: int64(1024 + rng.Intn(1025)), CompactThreshold: 0.3 + 0.4*rng.Float64()}
			s := newPackStore(t, dir, cfg)
			oracle := NewMemStore()
			for step := 0; step < steps; step++ {
				b := blocks[rng.Intn(keys)]
				var op string
				switch x := rng.Intn(100); {
				case x < 40:
					op = "put"
					if x >= 30 { // re-put: the first absent key, if any
						for _, d := range blocks {
							if !oracle.Has(d.Cid()) {
								b = d
								break
							}
						}
					}
					if err := s.Put(b); err != nil {
						t.Fatal(err)
					}
					oracle.Put(b)
				case x < 68:
					op = "delete"
					s.Delete(b.Cid())
					oracle.Delete(b.Cid())
				case x < 73:
					op = "pin"
					s.Pin(b.Cid())
					oracle.Pin(b.Cid())
				case x < 78:
					op = "unpin"
					s.Unpin(b.Cid())
					oracle.Unpin(b.Cid())
				case x < 90:
					op = "compact"
					if err := s.CompactNow(); err != nil {
						t.Fatal(err)
					}
				case x < 95:
					op = "flush"
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				default:
					op = "reopen"
					if err := s.Close(); err != nil {
						t.Fatal(err)
					}
					s = newPackStore(t, dir, cfg)
					// Pins live in memory only: a reopen forgets them.
					for _, d := range blocks {
						oracle.Unpin(d.Cid())
					}
				}

				if s.Len() != oracle.Len() {
					t.Errorf("Len = %d, oracle %d", s.Len(), oracle.Len())
				}
				for i, d := range blocks {
					want, werr := oracle.Get(d.Cid())
					got, gerr := s.Get(d.Cid())
					switch {
					case s.Has(d.Cid()) != (werr == nil):
						t.Errorf("key %d: Has = %v, oracle %v", i, s.Has(d.Cid()), werr == nil)
					case werr != nil && !errors.Is(gerr, ErrNotFound):
						t.Errorf("key %d: Get = %v, want ErrNotFound", i, gerr)
					case werr == nil && (gerr != nil || string(got.Data()) != string(want.Data())):
						t.Errorf("key %d: Get = %q, %v, oracle holds %q", i, got.Data(), gerr, want.Data())
					}
					if s.Pinned(d.Cid()) != oracle.Pinned(d.Cid()) {
						t.Errorf("key %d: Pinned = %v, oracle %v", i, s.Pinned(d.Cid()), oracle.Pinned(d.Cid()))
					}
				}
				checkPackInvariants(t, s)
				if t.Failed() {
					t.Fatalf("after step %d (%s, key %s), volumes=%d", step, op, b.Cid(), len(s.volumes))
				}
			}
		})
	}
}

// writeFormatSequence drives a fixed sequence of Puts and Deletes over
// 400-byte volumes, one record larger than a volume among them, with no
// compaction, and closes the store. testdata/packstore-parent holds the
// volumes the store wrote for it before appends went through a buffer.
func writeFormatSequence(t testing.TB, dir string) {
	t.Helper()
	s, err := NewPackStore(dir, PackConfig{VolumeSizeCap: 400, DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	put := func(b Block) {
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		put(packBlock(i))
	}
	put(New(multicodec.Raw, bytes.Repeat([]byte("L"), 500)))
	for i := 16; i < 24; i++ {
		put(packBlock(i))
	}
	for _, i := range []int{3, 7, 12, 23} {
		s.Delete(packBlock(i).Cid())
	}
	for i := 24; i < 30; i++ {
		put(packBlock(i))
	}
	s.Delete(packBlock(26).Cid())
	put(packBlock(3))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPackStoreWritesTheUnbufferedBytes: what reaches the volumes
// through the append buffer is byte for byte what one pwrite per record
// wrote — the records in the order the index saw them — and a store
// written that way opens with every put and tombstone in force.
func TestPackStoreWritesTheUnbufferedBytes(t *testing.T) {
	golden, err := filepath.Glob(filepath.Join("testdata", "packstore-parent", "pack-*.vol"))
	if err != nil || len(golden) == 0 {
		t.Fatalf("golden volumes: %v, %v", golden, err)
	}
	dir := t.TempDir()
	writeFormatSequence(t, dir)
	got := volumeFiles(t, dir)
	if len(got) != len(golden) {
		t.Fatalf("%d volumes, golden has %d", len(got), len(golden))
	}
	for i := range golden {
		want, err := os.ReadFile(golden[i])
		if err != nil {
			t.Fatal(err)
		}
		have, err := os.ReadFile(got[i])
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Base(got[i]) != filepath.Base(golden[i]) || !bytes.Equal(have, want) {
			t.Errorf("%s (%d bytes) differs from golden %s (%d bytes)", got[i], len(have), golden[i], len(want))
		}
	}

	parent := t.TempDir()
	copyVolumes(t, filepath.Join("testdata", "packstore-parent"), parent)
	r := newPackStore(t, parent, PackConfig{})
	deleted := map[int]bool{7: true, 12: true, 23: true, 26: true}
	for i := 0; i < 30; i++ {
		b := packBlock(i)
		got, err := r.Get(b.Cid())
		switch {
		case deleted[i] && !errors.Is(err, ErrNotFound):
			t.Errorf("block %d: deleted, Get = %v", i, err)
		case !deleted[i] && (err != nil || !bytes.Equal(got.Data(), b.Data())):
			t.Errorf("block %d: Get = %q, %v", i, got.Data(), err)
		}
	}
	if r.Len() != 30-len(deleted)+1 {
		t.Errorf("Len = %d, want %d", r.Len(), 30-len(deleted)+1)
	}
}

// TestPackStoreFailedGroupCommitSticks: once a write-out or an fsync
// fails, the store never again reports durability — not from a later
// Flush, not from Close — and refuses new appends; after Close it
// refuses them too.
func TestPackStoreFailedGroupCommitSticks(t *testing.T) {
	for _, tc := range []struct {
		name string
		cap  int64
		data []byte
	}{
		{"write-out", 0, []byte("buffered record")},
		// Larger than the 64-byte volume's buffer: written straight to
		// the file, so only the fsync is left to fail.
		{"fsync", 64, bytes.Repeat([]byte("d"), 100)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newPackStore(t, t.TempDir(), PackConfig{VolumeSizeCap: tc.cap})
			keep := packBlock(1)
			if err := s.Put(keep); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := s.Put(New(multicodec.Raw, tc.data)); err != nil {
				t.Fatal(err)
			}
			s.active.f.Close()
			if err := s.Flush(); err == nil {
				t.Fatal("Flush = nil with the volume file gone")
			}
			if err := s.Flush(); err == nil {
				t.Error("second Flush = nil: the failure was forgotten")
			}
			if err := s.Put(packBlock(2)); err == nil {
				t.Error("Put after a failed group commit = nil")
			}
			if err := s.Put(keep); err == nil {
				t.Error("Put of a stored block after a failed group commit = nil")
			}
			s.Delete(keep.Cid())
			if !s.Has(keep.Cid()) {
				t.Error("Delete after a failed group commit dropped the block")
			}
			if err := s.Close(); err == nil {
				t.Error("Close = nil after a failed group commit")
			}
		})
	}

	t.Run("closed", func(t *testing.T) {
		dir := t.TempDir()
		s := newPackStore(t, dir, PackConfig{})
		b := packBlock(1)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(packBlock(2)); err == nil {
			t.Error("Put after Close = nil")
		}
		s.Delete(b.Cid())
		if err := s.Close(); err != nil {
			t.Errorf("second Close = %v, want the first one's nil", err)
		}
		// A closed store holds nothing in memory, so the Delete shows on
		// disk or nowhere: it appended no tombstone.
		if r := newPackStore(t, dir, PackConfig{}); !r.Has(b.Cid()) {
			t.Error("Delete after Close dropped the block")
		}
	})
}

// TestPackStoreGetRacesWriteOut: Gets of blocks just put — some still in
// the append buffer, some in the file, some moving from one to the other
// under them — return bytes that verify while a writer fills the 1 MiB
// buffer several times over (≈ 340 blocks a buffer), flushing every 500
// blocks, into 4 MiB volumes.
func TestPackStoreGetRacesWriteOut(t *testing.T) {
	const blocks = 2000
	s := newPackStore(t, t.TempDir(), PackConfig{VolumeSizeCap: 4 << 20})
	all := make([]Block, blocks)
	for i := range all {
		data := bytes.Repeat([]byte{byte(i)}, 3000)
		copy(data, fmt.Sprintf("race-%05d", i))
		all[i] = New(multicodec.Raw, data)
	}
	var put atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, b := range all {
			if err := s.Put(b); err != nil {
				t.Errorf("put: %v", err)
				return
			}
			put.Store(int64(i + 1))
			if (i+1)%500 == 0 {
				if err := s.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				n := int(put.Load())
				if n == 0 {
					continue
				}
				// Mostly the newest blocks: the ones a write-out is moving.
				i := n - 1 - rng.Intn(min(n, 64))
				got, err := s.Get(all[i].Cid())
				if err != nil || !bytes.Equal(got.Data(), all[i].Data()) {
					t.Errorf("block %d: Get = %v, bytes equal %v", i, err, err == nil && bytes.Equal(got.Data(), all[i].Data()))
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestPackStoreBackgroundLoop exercises the non-test path: the flush
// ticker and the Delete-kicked compaction goroutine.
func TestPackStoreBackgroundLoop(t *testing.T) {
	dir := t.TempDir()
	s, err := NewPackStore(dir, PackConfig{
		VolumeSizeCap:    1024,
		FlushInterval:    time.Millisecond,
		CompactThreshold: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var blocks []Block
	for i := 0; i < 60; i++ {
		b := packBlock(i)
		blocks = append(blocks, b)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range blocks[:45] {
		s.Delete(b.Cid())
	}
	// Close waits for the worker, flushes and settles everything.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := newPackStore(t, dir, PackConfig{})
	if r.Len() != 15 {
		t.Fatalf("Len = %d, want 15", r.Len())
	}
	for _, b := range blocks[45:] {
		if _, err := r.Get(b.Cid()); err != nil {
			t.Fatal(err)
		}
	}
}

package block

import (
	"bytes"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/multicodec"
)

// putPackBlocks puts n distinct 1 KiB blocks and returns them in order.
func putPackBlocks(t *testing.T, s *PackStore, n int) []Block {
	t.Helper()
	blocks := make([]Block, n)
	data := make([]byte, 1024)
	for i := range blocks {
		data[0], data[1] = byte(i), byte(i>>8)
		blocks[i] = New(multicodec.Raw, data)
		if err := s.Put(blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	return blocks
}

// TestPackStoreTruncatedVolumeFailsTheRead: a sealed volume truncated
// under an open store faults on its mapped pages. The Get that touches
// one returns an error instead of crashing the process, and the store
// goes on serving the other volumes.
func TestPackStoreTruncatedVolumeFailsTheRead(t *testing.T) {
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 8 << 10})
	blocks := putPackBlocks(t, s, 24)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.VolumeCount() < 3 {
		t.Fatalf("%d volumes, want at least 3", s.VolumeCount())
	}
	if s.index[blocks[0].Cid().Key()].vol != 0 {
		t.Fatal("the first block is not in volume 0")
	}
	if err := os.Truncate(packVolumePath(dir, 0), 0); err != nil {
		t.Fatal(err)
	}
	_, err := s.Get(blocks[0].Cid())
	if err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Get from the truncated volume = %v, want a read error", err)
	}
	last := blocks[len(blocks)-1]
	if got, err := s.Get(last.Cid()); err != nil || !bytes.Equal(got.Data(), last.Data()) {
		t.Fatalf("Get from the active volume after the fault = %v", err)
	}
}

// TestPackStoreClosedReadsNothing: Close releases every mapping, so a
// Get afterwards fails without touching one — for blocks in sealed
// volumes, in the active volume's file and in its append buffer alike —
// and Has reports false.
func TestPackStoreClosedReadsNothing(t *testing.T) {
	s := newPackStore(t, t.TempDir(), PackConfig{VolumeSizeCap: 8 << 10})
	blocks := putPackBlocks(t, s, 20)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	blocks = append(blocks, putPackBlocks(t, s, 1)...) // still buffered
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if s.Has(b.Cid()) {
			t.Errorf("block %d: Has after Close = true", i)
		}
		if _, err := s.Get(b.Cid()); !errors.Is(err, errPackClosed) {
			t.Errorf("block %d: Get after Close = %v, want the closed error", i, err)
		}
	}
}

// TestPackStoreGetRacesCompactionAndClose runs Gets against a
// compaction loop that unmaps the volumes it empties, and closes the
// store under both while the first compaction is still moving records.
// Every Get returns the block, ErrNotFound for a deleted one, or the
// closed error; none reads a released mapping. The window in which a
// copy could outlive its mapping is narrow, so the test runs several
// rounds.
func TestPackStoreGetRacesCompactionAndClose(t *testing.T) {
	for round := 0; round < 10; round++ {
		raceGetsCompactionAndClose(t)
	}
}

func raceGetsCompactionAndClose(t *testing.T) {
	s := newPackStore(t, t.TempDir(), PackConfig{VolumeSizeCap: 8 << 10})
	blocks := putPackBlocks(t, s, 120)
	for i, b := range blocks {
		if i%3 != 0 {
			s.Delete(b.Cid())
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var closed atomic.Bool
	compacting := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(compacting)
		for !closed.Load() {
			if err := s.CompactNow(); err != nil && !errors.Is(err, errPackClosed) {
				t.Errorf("compact: %v", err)
			}
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				b := blocks[i%len(blocks)]
				got, err := s.Get(b.Cid())
				switch {
				case errors.Is(err, errPackClosed):
					return
				case i%len(blocks)%3 != 0:
					if !errors.Is(err, ErrNotFound) {
						t.Errorf("deleted block %d: Get = %v, want ErrNotFound", i%len(blocks), err)
						return
					}
				case err != nil || !bytes.Equal(got.Data(), b.Data()):
					t.Errorf("block %d: Get = %v", i%len(blocks), err)
					return
				}
			}
		}(g)
	}
	<-compacting
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	closed.Store(true)
	wg.Wait()
}

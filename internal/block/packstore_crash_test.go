package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cid"
	"repro/internal/multicodec"
)

// copyVolumes copies every volume file in src to dst, as a file-level
// copy of a live store's directory would.
func copyVolumes(t *testing.T, src, dst string) {
	t.Helper()
	for _, p := range volumeFiles(t, src) {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, filepath.Base(p)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// packRec is one record of a volume as readRecords finds it.
type packRec struct {
	kind byte
	key  string
	end  int64 // offset just past the record
}

// readRecords splits an undamaged volume into its records using the
// header's two length fields and nothing of the store's own code; bytes
// that do not end on a record boundary fail the test.
func readRecords(t *testing.T, vol []byte) []packRec {
	t.Helper()
	var recs []packRec
	for off := 0; off < len(vol); {
		if len(vol)-off < packHeaderLen {
			t.Fatalf("%d stray bytes after the record ending at %d", len(vol)-off, off)
		}
		cidLen := int(binary.BigEndian.Uint16(vol[off+5:]))
		end := off + packHeaderLen + cidLen + int(binary.BigEndian.Uint32(vol[off+7:]))
		if end > len(vol) {
			t.Fatalf("record at %d ends at %d, past the volume's %d bytes", off, end, len(vol))
		}
		recs = append(recs, packRec{vol[off+4], string(vol[off+packHeaderLen : off+packHeaderLen+cidLen]), int64(end)})
		off = end
	}
	return recs
}

// TestPackStoreKillKeepsWhatWasWrittenOut: a copy of the volume files
// taken without Close — what kill -9 leaves — holds exactly the records
// written out so far, whole and in order, and reopens to them; a copy
// taken after Flush holds every Put and Delete that returned before it.
func TestPackStoreKillKeepsWhatWasWrittenOut(t *testing.T) {
	const puts, deletes = 600, 10
	dir := t.TempDir()
	s := newPackStore(t, dir, PackConfig{VolumeSizeCap: 4 << 20})
	all := make([]Block, puts)
	for i := range all {
		data := bytes.Repeat([]byte{byte(i)}, 4096)
		copy(data, fmt.Sprintf("kill-%05d", i))
		all[i] = New(multicodec.Raw, data)
		if err := s.Put(all[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, b := range all[:deletes] {
		s.Delete(b.Cid())
	}

	killed := t.TempDir()
	copyVolumes(t, dir, killed)
	vol, err := os.ReadFile(packVolumePath(killed, 0))
	if err != nil {
		t.Fatal(err)
	}
	recs := readRecords(t, vol)
	written := len(recs)
	if written == 0 || written >= puts {
		t.Fatalf("%d of %d puts written out: the test wants some in the file and some in the buffer", written, puts)
	}
	for i, r := range recs {
		if r.kind != recPut || r.key != all[i].Cid().Key() {
			t.Fatalf("record %d in the file is not put %d", i, i)
		}
	}
	r := newPackStore(t, killed, PackConfig{})
	for i, b := range all {
		if has := r.Has(b.Cid()); has != (i < written) {
			t.Errorf("killed copy: block %d present = %v, written out = %v", i, has, i < written)
		}
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	flushed := t.TempDir()
	copyVolumes(t, dir, flushed)
	r = newPackStore(t, flushed, PackConfig{})
	if r.Len() != puts-deletes {
		t.Errorf("flushed copy: Len = %d, want %d", r.Len(), puts-deletes)
	}
	for i, b := range all {
		got, err := r.Get(b.Cid())
		switch {
		case i < deletes && !errors.Is(err, ErrNotFound):
			t.Errorf("flushed copy: deleted block %d: Get = %v", i, err)
		case i >= deletes && (err != nil || !bytes.Equal(got.Data(), b.Data())):
			t.Errorf("flushed copy: block %d: %v", i, err)
		}
	}
}

// buildCrashStore writes a small multi-volume store into dir — 300-byte
// volumes holding three 83-byte put records each, puts, deletes, one
// compaction that moves a live record and drops volume 0, a re-put of a
// deleted block — closes it, and returns every block it ever put by key.
func buildCrashStore(t *testing.T, dir string) map[string]Block {
	s, err := NewPackStore(dir, PackConfig{VolumeSizeCap: 300, CompactThreshold: 0.5, DisableBackground: true})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string]Block)
	put := func(i int) {
		b := packBlock(i)
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
		blocks[b.Cid().Key()] = b
	}
	for i := 0; i < 12; i++ {
		put(i)
	}
	s.Delete(packBlock(0).Cid())
	s.Delete(packBlock(1).Cid())
	if err := s.CompactNow(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.volumes[0]; ok {
		t.Fatal("test premise broken: volume 0 was not compacted")
	}
	for i := 12; i < 15; i++ {
		put(i)
	}
	s.Delete(packBlock(5).Cid())
	s.Delete(packBlock(13).Cid())
	put(0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// TestPackStoreCrashPoints damages one volume of a closed multi-volume
// store at every byte offset — truncated there, or one bit flipped there
// — and reopens it. Open must not panic, and the store must hold
// exactly what a replay of the records that end at or before the damage
// holds (in the damaged volume; every other volume whole): each of
// those puts served with its own bytes, each of those tombstones in
// force, nothing else. For the last volume truncated at k that is the
// crash contract: the puts and tombstones that end at or before k. A
// -short run checks every 13th offset.
func TestPackStoreCrashPoints(t *testing.T) {
	src := t.TempDir()
	blocks := buildCrashStore(t, src)
	names := volumeFiles(t, src)
	vols := make([][]byte, len(names))
	recs := make([][]packRec, len(names))
	for i, p := range names {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		vols[i], recs[i] = raw, readRecords(t, raw)
	}
	if len(vols) < 4 {
		t.Fatalf("test premise broken: %d volumes", len(vols))
	}
	// replay is the store's contract as a model: records in volume
	// order, a put making its key live and a tombstone dead, volume cut
	// ending at its last record that ends at or before k.
	replay := func(cut int, k int64) map[string]bool {
		live := make(map[string]bool)
		for i, rs := range recs {
			for _, r := range rs {
				if i == cut && r.end > k {
					break
				}
				live[r.key] = r.kind == recPut
			}
		}
		return live
	}
	stride := 1
	if testing.Short() {
		stride = 13
	}
	dir := t.TempDir()
	var damaged []byte
	for vi, vol := range vols {
		for k := 0; k < len(vol); k += stride {
			for _, flip := range []bool{false, true} {
				for i, p := range names {
					data := vol
					if i != vi {
						data = vols[i]
					} else if flip {
						damaged = append(damaged[:0], vol...)
						damaged[k] ^= 1 << (k % 8)
						data = damaged
					} else {
						data = vol[:k]
					}
					if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				checkCrashPoint(t, dir, blocks, replay(vi, int64(k)))
				if t.Failed() {
					t.Fatalf("volume %s damaged at offset %d (flip %v)", filepath.Base(names[vi]), k, flip)
				}
			}
		}
	}
}

func checkCrashPoint(t *testing.T, dir string, blocks map[string]Block, live map[string]bool) {
	t.Helper()
	s, err := NewPackStore(dir, PackConfig{DisableBackground: true})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Close()
	want := 0
	for key, b := range blocks {
		got, err := s.Get(b.Cid())
		switch {
		case live[key] && (err != nil || !bytes.Equal(got.Data(), b.Data())):
			t.Errorf("%s: Get = %v, want its bytes", b.Cid(), err)
		case !live[key] && !errors.Is(err, ErrNotFound):
			t.Errorf("%s: Get = %v, want ErrNotFound", b.Cid(), err)
		}
		if live[key] {
			want++
		}
	}
	if s.Len() != want {
		t.Errorf("Len = %d, want %d", s.Len(), want)
	}
}

// FuzzPackVolume opens a store over one volume file holding the fuzzer's
// bytes. Open must not panic; every indexed CID must Get bytes that
// verify, or an error; and a Put, Close and reopen must keep every
// indexed block and add the new one.
func FuzzPackVolume(f *testing.F) {
	seed := f.TempDir()
	s, err := NewPackStore(seed, PackConfig{DisableBackground: true})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(packBlock(i)); err != nil {
			f.Fatal(err)
		}
	}
	s.Delete(packBlock(1).Cid())
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(packVolumePath(seed, 0))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-7])                                                // torn tail
	f.Add(append(bytes.Clone(valid), []byte("not a record header at all")...)) // garbage tail

	f.Fuzz(func(t *testing.T, vol []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(packVolumePath(dir, 0), vol, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewPackStore(dir, PackConfig{DisableBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		keys := make([]string, 0, len(s.index))
		for key := range s.index {
			keys = append(keys, key)
		}
		for _, key := range keys {
			c, err := cid.FromBytes([]byte(key))
			if err != nil {
				t.Fatalf("indexed key %x is no CID: %v", key, err)
			}
			if blk, err := s.Get(c); err == nil && !c.Verify(blk.Data()) {
				t.Fatalf("%s: Get returned bytes that do not verify", c)
			}
		}

		b := New(multicodec.Raw, []byte("fuzz round trip"))
		_, had := s.index[b.Cid().Key()]
		if err := s.Put(b); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := NewPackStore(dir, PackConfig{DisableBackground: true})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if got, err := r.Get(b.Cid()); err != nil || !bytes.Equal(got.Data(), b.Data()) {
			t.Fatalf("round trip: Get = %v", err)
		}
		want := len(keys)
		if !had {
			want++
		}
		if r.Len() != want {
			t.Fatalf("round trip: Len = %d, want %d", r.Len(), want)
		}
		for _, key := range keys {
			if _, ok := r.index[key]; !ok {
				t.Fatalf("round trip lost %x", key)
			}
		}
	})
}

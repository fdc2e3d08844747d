package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cid"
	"repro/internal/telemetry"
)

// PackStore is a pack-engine blockstore in the bitcask/auklet style:
// blocks append sequentially to large volume files under per-record
// headers, an in-memory index maps cid -> (volume, offset, len), and
// Delete only writes a tombstone — background compaction rewrites
// volumes whose dead-byte ratio crosses a threshold. Compared to a
// file-per-block layout this turns a million small blocks into a
// handful of large files and no inode churn. Every volume is read
// through one read-only shared mapping of its file, so a Get is one
// memory copy, not a pread. Writes are group-committed twice over:
// records collect in an in-memory append buffer and reach the volume in
// one pwrite per buffer, and the volume is fsynced once per flush
// interval, not once per Put.
//
// The buffer is written out when the next record would not fit, by
// Flush before its fsync (the background group commit and every
// explicit call), at rotation before the seal fsync, and at Close. A
// record larger than the buffer is written straight to the file after
// it. A Get of a record still in the buffer copies it out under the
// index lock instead of reading the file. A process killed between two
// write-outs loses the appends buffered since the first — never more
// than one flush interval's, as a machine crash can — and the first
// write-out or fsync error is sticky: every later Put, Delete, Flush
// and Close reports it rather than promise durability it cannot give.
//
// On-disk record layout (big-endian), identical for volumes and the
// records compaction rewrites:
//
//	magic   uint32  0x504b424c ("PKBL")
//	kind    byte    1 = put, 2 = tombstone
//	cidLen  uint16
//	dataLen uint32  0 for tombstones
//	crc     uint32  CRC-32C over cid || data
//	cid     []byte
//	data    []byte
//
// The index is rebuilt by replaying volume headers in id order on open;
// a torn tail record (crash mid-append) fails its length or checksum
// check and the active volume is truncated back to the last whole
// record.
type PackStore struct {
	cfg PackConfig
	dir string
	reg atomic.Pointer[telemetry.Registry]

	// mu guards the index, the volumes map, each volume's tombs and
	// stale sets, staleRefs, the pin set and where the append buffer
	// sits (packVolume.buf and bufOff). Readers hold it (shared) across
	// their copy out of a volume's mapping or out of the buffer, so the
	// compactor — which takes it exclusively before dropping a volume
	// from the map — can never unmap a volume under an in-flight read,
	// and a write-out cannot recycle the buffer under one.
	mu sync.RWMutex
	// index is nil once the store is closed: a closed store holds
	// nothing, and no lookup can reach a released mapping.
	index    map[string]packLoc
	volumes  map[int]*packVolume
	pins     map[string]struct{}
	activeID int
	// staleRefs counts, per key, the volumes whose stale set holds it:
	// staleRefs[k] == |{v : k ∈ v.stale}|, with no zero entries. It is
	// the whole-store answer tombstoneNeeded would otherwise collect by
	// asking every volume. Only markStale increments it, only compactVolume
	// decrements it (where it drops the volume), and open rebuilds it
	// through markStale.
	staleRefs map[string]int

	// wmu serializes appends, rotation and the index mutations that
	// follow an append — Put, Delete and every record compaction copies —
	// so the order of records on disk is the order the index saw them.
	// Lock order: cmu, then smu, then wmu, then mu, always.
	wmu    sync.Mutex
	active *packVolume
	dirty  bool  // appended since the active volume's last fsync
	err    error // the first write-out or fsync failure, or errPackClosed

	// smu serializes Flush across its fsync, so a Flush never returns
	// before an fsync another one started has finished, and a volume
	// file is never closed under one.
	smu sync.Mutex
	cmu sync.Mutex // one compaction at a time

	stop      chan struct{}
	kick      chan struct{}
	bg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// PackConfig tunes a PackStore; zero values select the defaults.
type PackConfig struct {
	// VolumeSizeCap rotates to a fresh volume file once the active one
	// would exceed this many bytes (default 256 MiB).
	VolumeSizeCap int64
	// FlushInterval is the group-commit period: appended records are
	// written out and fsynced together at this cadence instead of per
	// Put (default 100 ms). A crash can lose at most the last interval's
	// puts — a machine crash, or a killed process, whose buffered
	// appends have not reached the file yet; the torn-tail scan makes
	// that loss clean rather than corrupting.
	FlushInterval time.Duration
	// CompactThreshold is the dead-byte ratio at which a sealed volume
	// becomes a compaction candidate (default 0.5).
	CompactThreshold float64
	// DisableBackground skips the flush/compaction goroutine; tests
	// drive Flush and CompactNow directly for determinism.
	DisableBackground bool
}

func (c PackConfig) withDefaults() PackConfig {
	if c.VolumeSizeCap <= 0 {
		c.VolumeSizeCap = 256 << 20
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.CompactThreshold <= 0 {
		c.CompactThreshold = 0.5
	}
	return c
}

const (
	packMagic     = 0x504b424c // "PKBL"
	packHeaderLen = 15
	recPut        = byte(1)
	recTombstone  = byte(2)

	// Scan sanity bounds: a header whose lengths exceed these is a torn
	// or corrupt tail, not a record.
	packMaxCidLen  = 4096
	packMaxDataLen = 1 << 30

	// packBufSize caps the append buffer; a volume smaller than this
	// gets a buffer of its own size, since rotation empties the buffer
	// before it could hold more.
	packBufSize = 1 << 20
)

var (
	packCRC       = crc32.MakeTable(crc32.Castagnoli)
	errPackClosed = errors.New("closed")
)

// packLoc locates one live block: volume id, payload offset, payload
// length. The cid length is recoverable from the index key (the key is
// the cid's raw bytes), so record sizes need not be stored.
type packLoc struct {
	vol int
	off int64
	n   int32
}

type packVolume struct {
	id   int
	path string
	f    *os.File
	// m maps f read-only and shared: max(VolumeSizeCap, file size)
	// bytes, grown only when a record larger than the cap lands in the
	// empty volume. It is set at open and replaced or released (nil)
	// only under mu held exclusively, or after the volume has left the
	// volumes map.
	m    []byte
	size atomic.Int64 // accounted bytes; append offset for the active volume
	dead atomic.Int64 // bytes of overwritten/deleted records + tombstones
	// buf is the store's append buffer while this volume is active (nil
	// once sealed: rotation hands it on): it holds the volume's bytes
	// [bufOff, size), which are not in f yet, at buf[0:size-bufOff].
	// buf and bufOff change under wmu and mu together; the bytes past
	// size-bufOff are written under wmu alone, and no reader looks there
	// until the index points at them.
	buf    []byte
	bufOff int64
	// tombs remembers which keys this volume tombstones, so compaction
	// can re-write a still-needed tombstone before dropping the file.
	tombs map[string]struct{}
	// stale remembers which keys have a dead put record in this volume
	// (overwritten, deleted, or moved out by compaction). A tombstone is
	// only worth carrying while some other volume holds a stale put for
	// its key — otherwise a reopen has nothing to resurrect and the
	// tombstone can be dropped, which is what lets compaction terminate
	// instead of shuttling tombstones between volumes forever. Written
	// only by markStale, which keeps PackStore.staleRefs in step.
	stale map[string]struct{}
}

// Interface checks.
var (
	_ Store  = (*PackStore)(nil)
	_ Pinner = (*PackStore)(nil)
)

// NewPackStore opens (creating if needed) a pack store rooted at dir,
// rebuilding the index from the volume files found there.
func NewPackStore(dir string, cfg PackConfig) (*PackStore, error) {
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("block: packstore: %w", err)
	}
	s := &PackStore{
		cfg:       cfg,
		dir:       dir,
		index:     make(map[string]packLoc),
		volumes:   make(map[int]*packVolume),
		pins:      make(map[string]struct{}),
		staleRefs: make(map[string]int),
		stop:      make(chan struct{}),
		kick:      make(chan struct{}, 1),
	}
	if err := s.open(); err != nil {
		s.releaseVolumes()
		return nil, err
	}
	if !cfg.DisableBackground {
		s.bg.Add(1)
		go s.background()
	}
	return s, nil
}

func packVolumePath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("pack-%06d.vol", id))
}

// openVolume opens (creating if needed) volume id and maps it,
// returning the volume and its file's size.
func (s *PackStore) openVolume(id int) (*packVolume, int64, error) {
	path := packVolumePath(s.dir, id)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("block: packstore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("block: packstore: %w", err)
	}
	m, err := mapVolume(f, max(s.cfg.VolumeSizeCap, st.Size()))
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return &packVolume{
		id:    id,
		path:  path,
		f:     f,
		m:     m,
		tombs: make(map[string]struct{}),
		stale: make(map[string]struct{}),
	}, st.Size(), nil
}

// release unmaps v and closes its file. Caller holds mu exclusively,
// or v has left the volumes map, so no reader can be copying out of
// the mapping.
func (v *packVolume) release() {
	if v.m != nil {
		unmapVolume(v.m)
		v.m = nil
	}
	v.f.Close()
}

// releaseVolumes releases every volume in the map. Caller holds mu
// exclusively (or, at a failed open, the store was never shared).
func (s *PackStore) releaseVolumes() {
	for _, v := range s.volumes {
		v.release()
	}
}

// readMapped copies m[off:off+len(dst)] into dst. A fault on a mapped
// page — the file truncated under the store, or an I/O error paging it
// in — becomes the returned error instead of crashing the process; any
// other panic goes on.
func readMapped(dst, m []byte, off int64) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			fault, ok := r.(interface {
				runtime.Error
				Addr() uintptr
			})
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("memory fault at %#x in the volume mapping", fault.Addr())
		}
	}()
	copy(dst, m[off:])
	return nil
}

// open replays every volume in id order. The highest-numbered volume
// becomes the active one and is truncated past its last whole record;
// garbage tails in sealed volumes are only counted as dead bytes.
func (s *PackStore) open() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "pack-*.vol"))
	if err != nil {
		return fmt.Errorf("block: packstore: %w", err)
	}
	var ids []int
	for _, p := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(p), "pack-%06d.vol", &id); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		v, size, err := s.openVolume(id)
		if err != nil {
			return err
		}
		s.volumes[id] = v
		valid := s.scanVolume(v, size)
		if i == len(ids)-1 {
			if size > valid {
				if err := v.f.Truncate(valid); err != nil {
					return fmt.Errorf("block: packstore: %w", err)
				}
			}
			s.active, s.activeID = v, id
		} else if size > valid {
			v.size.Store(size)
			v.dead.Add(size - valid)
		}
	}
	if s.active == nil {
		v, _, err := s.openVolume(0)
		if err != nil {
			return err
		}
		s.volumes[0] = v
		s.active, s.activeID = v, 0
	}
	s.active.buf = make([]byte, min(packBufSize, s.cfg.VolumeSizeCap))
	s.active.bufOff = s.active.size.Load()
	return nil
}

// scanVolume replays v's records into the index, stopping at the first
// record that fails a header sanity check or its checksum, or would run
// past the file's size bytes, and returns the length of the valid
// prefix. It reads through v's mapping, as Get does; open runs before
// the store is shared, so it takes no lock.
func (s *PackStore) scanVolume(v *packVolume, size int64) int64 {
	var off int64
	var hdr [packHeaderLen]byte
	var payload []byte // one buffer, reused for every record's cid || data
	for off+packHeaderLen <= size {
		if readMapped(hdr[:], v.m, off) != nil {
			break
		}
		magic := binary.BigEndian.Uint32(hdr[0:4])
		kind := hdr[4]
		cidLen := int(binary.BigEndian.Uint16(hdr[5:7]))
		dataLen := int(binary.BigEndian.Uint32(hdr[7:11]))
		sum := binary.BigEndian.Uint32(hdr[11:15])
		if magic != packMagic || (kind != recPut && kind != recTombstone) ||
			cidLen == 0 || cidLen > packMaxCidLen || dataLen > packMaxDataLen ||
			(kind == recTombstone && dataLen != 0) ||
			off+int64(packHeaderLen+cidLen+dataLen) > size {
			break
		}
		payload = slices.Grow(payload[:0], cidLen+dataLen)[:cidLen+dataLen]
		if readMapped(payload, v.m, off+packHeaderLen) != nil {
			break
		}
		if crc32.Checksum(payload, packCRC) != sum {
			break
		}
		c, err := cid.FromBytes(payload[:cidLen])
		if err != nil {
			break
		}
		key := c.Key()
		recLen := int64(packHeaderLen + cidLen + dataLen)
		switch kind {
		case recPut:
			if old, ok := s.index[key]; ok {
				s.markStale(key, old)
			}
			s.index[key] = packLoc{vol: v.id, off: off + packHeaderLen + int64(cidLen), n: int32(dataLen)}
			delete(v.tombs, key) // a re-put supersedes this volume's tombstone
		case recTombstone:
			if old, ok := s.index[key]; ok {
				s.markStale(key, old)
				delete(s.index, key)
			}
			v.dead.Add(recLen) // the tombstone itself is dead weight
			v.tombs[key] = struct{}{}
		}
		off += recLen
	}
	v.size.Store(off)
	return off
}

// packRecLen is the on-disk size of a record whose index key (= cid
// bytes) is key and whose payload is dataLen bytes.
func packRecLen(key string, dataLen int32) int64 {
	return int64(packHeaderLen + len(key) + int(dataLen))
}

// markStale accounts for the put record at loc having just died —
// superseded on replay, deleted, or moved out by compaction: its bytes
// turn dead, and its volume joins the set of volumes holding a stale
// put for key. It is the only writer of a volume's stale set and the
// only place staleRefs grows, which is what keeps staleRefs[key] equal
// to the number of volumes whose stale holds key. Caller holds mu
// exclusively (open runs before the store is shared).
func (s *PackStore) markStale(key string, loc packLoc) {
	v := s.volumes[loc.vol]
	v.dead.Add(packRecLen(key, loc.n))
	if _, ok := v.stale[key]; !ok {
		v.stale[key] = struct{}{}
		s.staleRefs[key]++
	}
}

// appendRecord appends one encoded record for key (the cid's bytes) to
// dst and returns the extended slice.
func appendRecord(dst []byte, kind byte, key string, data []byte) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, packMagic)
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	dst = binary.BigEndian.AppendUint32(dst, 0) // crc, once the payload is in
	dst = append(dst, key...)
	dst = append(dst, data...)
	binary.BigEndian.PutUint32(dst[start+11:], crc32.Checksum(dst[start+packHeaderLen:], packCRC))
	return dst
}

// appendLocked appends one record to the active volume, rotating first
// when it would overflow the size cap, and returns the volume and the
// record's offset in it. The record is encoded into the append buffer,
// which is written out first if the record would not fit; a record
// larger than the whole buffer goes straight to the file after it. It
// refuses once the store has failed or closed. Caller holds wmu.
func (s *PackStore) appendLocked(kind byte, key string, data []byte) (*packVolume, int64, error) {
	if s.err != nil {
		return nil, 0, s.err
	}
	n := int64(packHeaderLen + len(key) + len(data))
	v := s.active
	if sz := v.size.Load(); sz > 0 && sz+n > s.cfg.VolumeSizeCap {
		nv, err := s.rotateLocked()
		if err != nil {
			return nil, 0, err
		}
		v = nv
	}
	off := v.size.Load()
	if off-v.bufOff+n > int64(len(v.buf)) {
		if err := s.writeOutLocked(); err != nil {
			return nil, 0, err
		}
	}
	if n > int64(len(v.buf)) {
		if _, err := v.f.WriteAt(appendRecord(nil, kind, key, data), off); err != nil {
			return nil, 0, s.failLocked(err)
		}
		// Only a record larger than the cap, landing in the empty
		// volume, runs past the mapping.
		var m []byte
		if off+n > int64(len(v.m)) {
			var err error
			if m, err = mapVolume(v.f, off+n); err != nil {
				return nil, 0, s.failLocked(err)
			}
		}
		s.mu.Lock()
		v.bufOff = off + n
		if m != nil {
			unmapVolume(v.m)
			v.m = m
		}
		s.mu.Unlock()
	} else {
		p := off - v.bufOff
		appendRecord(v.buf[p:p], kind, key, data)
	}
	v.size.Store(off + n)
	s.dirty = true
	return v, off, nil
}

// writeOutLocked writes the append buffer to the active volume in one
// pwrite. Readers keep copying buffered records out of it until the
// pwrite has returned; only then does bufOff move past them. Caller
// holds wmu.
func (s *PackStore) writeOutLocked() error {
	if s.err != nil {
		return s.err
	}
	v := s.active
	end := v.size.Load()
	if end == v.bufOff {
		return nil
	}
	if _, err := v.f.WriteAt(v.buf[:end-v.bufOff], v.bufOff); err != nil {
		return s.failLocked(err)
	}
	s.mu.Lock()
	v.bufOff = end
	s.mu.Unlock()
	return nil
}

// failLocked keeps the store's first write-out or fsync failure and
// returns the one kept. Appends after a lost write or a failed fsync
// cannot be promised durable, so from then on every Put, Delete, Flush
// and Close reports it. Caller holds wmu.
func (s *PackStore) failLocked(err error) error {
	if s.err == nil {
		s.err = fmt.Errorf("block: packstore: %w", err)
	}
	return s.err
}

// rotateLocked seals the active volume (writing its buffer out and
// fsyncing it durably), opens the next one and hands it the append
// buffer. Caller holds wmu.
func (s *PackStore) rotateLocked() (*packVolume, error) {
	if err := s.writeOutLocked(); err != nil {
		return nil, err
	}
	old := s.active
	if err := old.f.Sync(); err != nil {
		return nil, s.failLocked(err)
	}
	s.dirty = false
	v, _, err := s.openVolume(s.activeID + 1)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	v.buf, old.buf = old.buf, nil
	s.volumes[v.id] = v
	s.activeID = v.id
	s.mu.Unlock()
	s.active = v
	return v, nil
}

// Put implements Store. Content addressing makes Put of an already
// stored CID a no-op: the same CID certifies the same bytes. Once the
// store has failed or closed, every Put returns that error.
func (s *PackStore) Put(b Block) error {
	if err := b.checkPut(); err != nil {
		return err
	}
	key := b.cid.Key()
	s.wmu.Lock()
	s.mu.RLock()
	_, exists := s.index[key]
	s.mu.RUnlock()
	if exists && s.err == nil {
		s.wmu.Unlock()
		return nil
	}
	v, off, err := s.appendLocked(recPut, key, b.data)
	if err != nil {
		s.wmu.Unlock()
		return err
	}
	s.mu.Lock()
	s.index[key] = packLoc{vol: v.id, off: off + packHeaderLen + int64(len(key)), n: int32(len(b.data))}
	s.mu.Unlock()
	s.wmu.Unlock()
	s.reg.Load().Counter("blockstore_puts", "store", "pack").Inc()
	s.publishGauges()
	return nil
}

// Get implements Store: one copy under the shared lock, out of the
// volume's mapping or, for a record still in the append buffer, out of
// the buffer — then self-certification so on-disk corruption surfaces
// as an error. After Close it returns an error.
func (s *PackStore) Get(c cid.Cid) (Block, error) {
	start := time.Now()
	s.mu.RLock()
	loc, ok := s.index[c.Key()]
	if !ok {
		closed := s.index == nil
		s.mu.RUnlock()
		if closed {
			return Block{}, fmt.Errorf("block: packstore: get %s: %w", c, errPackClosed)
		}
		return Block{}, ErrNotFound
	}
	v := s.volumes[loc.vol]
	if v == nil {
		s.mu.RUnlock()
		return Block{}, fmt.Errorf("block: packstore: %s: volume %d missing", c, loc.vol)
	}
	data := make([]byte, loc.n)
	var err error
	if v.buf != nil && loc.off >= v.bufOff {
		copy(data, v.buf[loc.off-v.bufOff:])
	} else {
		err = readMapped(data, v.m, loc.off)
	}
	s.mu.RUnlock()
	if err != nil {
		return Block{}, fmt.Errorf("block: packstore: read %s: %w", c, err)
	}
	blk, err := NewWithCid(c, data)
	if err != nil {
		return Block{}, fmt.Errorf("block: packstore: %s corrupt on disk: %w", c, err)
	}
	reg := s.reg.Load()
	reg.Counter("blockstore_gets", "store", "pack").Inc()
	reg.Histogram("pack_read_seconds").ObserveDuration(time.Since(start))
	return blk, nil
}

// Has implements Store.
func (s *PackStore) Has(c cid.Cid) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[c.Key()]
	return ok
}

// Delete implements Store. It appends a tombstone and drops the index
// entry; the record's bytes are reclaimed later by compaction. Pinned
// blocks are not deleted. Every Delete kicks the background loop; what
// the kick wakes is compactCandidate's scan, O(volumes) while no volume
// is past the threshold, however many tombstones the store holds.
func (s *PackStore) Delete(c cid.Cid) {
	key := c.Key()
	s.wmu.Lock()
	s.mu.RLock()
	loc, ok := s.index[key]
	_, pinned := s.pins[key]
	s.mu.RUnlock()
	if !ok || pinned {
		s.wmu.Unlock()
		return
	}
	v, _, err := s.appendLocked(recTombstone, key, nil)
	if err != nil {
		// Keep the index entry: without a durable tombstone the block
		// would resurrect on reopen anyway. A failed or closed store
		// deletes nothing.
		s.wmu.Unlock()
		return
	}
	s.mu.Lock()
	// loc is still current: every index write happens under wmu.
	s.markStale(key, loc)
	delete(s.index, key)
	v.dead.Add(packRecLen(key, 0))
	v.tombs[key] = struct{}{}
	s.mu.Unlock()
	s.wmu.Unlock()
	s.reg.Load().Counter("blockstore_deletes", "store", "pack").Inc()
	s.publishGauges()
	s.kickCompaction()
}

// Len implements Store.
func (s *PackStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Pin marks a block as pinned; pinned blocks refuse Delete.
func (s *PackStore) Pin(c cid.Cid) {
	s.mu.Lock()
	s.pins[c.Key()] = struct{}{}
	s.mu.Unlock()
}

// Unpin removes a pin.
func (s *PackStore) Unpin(c cid.Cid) {
	s.mu.Lock()
	delete(s.pins, c.Key())
	s.mu.Unlock()
}

// Pinned reports whether c is pinned.
func (s *PackStore) Pinned(c cid.Cid) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.pins[c.Key()]
	return ok
}

// Flush writes the append buffer out and fsyncs the active volume — the
// group commit the background loop runs every FlushInterval. When it
// returns nil, every Put and Delete that returned before it was called
// is durable; once a write-out or fsync has failed it returns that
// failure, every time.
func (s *PackStore) Flush() error {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.wmu.Lock()
	err := s.writeOutLocked()
	f, dirty := s.active.f, s.dirty
	s.dirty = false
	s.wmu.Unlock()
	if err != nil || !dirty {
		return err
	}
	if err := f.Sync(); err != nil {
		s.wmu.Lock()
		defer s.wmu.Unlock()
		return s.failLocked(err)
	}
	return nil
}

func (s *PackStore) kickCompaction() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// tombstoneNeeded reports whether a tombstone for key must be carried
// forward when its volume (exclude) is dropped: the key is not live and
// some other volume still holds a stale put record a reopen would
// otherwise replay. staleRefs makes that O(1): the number of volumes
// holding a stale put for key, less exclude's own. Caller holds mu
// (shared suffices).
func (s *PackStore) tombstoneNeeded(key string, exclude *packVolume) bool {
	refs := s.staleRefs[key]
	if _, own := exclude.stale[key]; own {
		refs--
	}
	if refs <= 0 {
		return false
	}
	_, live := s.index[key]
	return !live // a rewrite after the re-put record would kill it
}

// compactCandidate picks the sealed volume with the worst reclaimable
// ratio at or past the threshold (the oldest on a tie), or nil. Dead
// bytes belonging to still-needed tombstones are not reclaimable —
// compaction would just rewrite them into the active volume — so a
// volume of nothing but needed tombstones is not a candidate; it
// becomes one when the stale puts its tombstones mask are compacted
// away themselves.
//
// Needed-tombstone bytes are only ever subtracted from dead, so the raw
// dead/size ratio is an upper bound on the reclaimable one: a volume
// under the threshold on the raw ratio is skipped before any of its
// tombstones is looked at. The scan every Delete's kick wakes is
// therefore O(volumes) atomic loads, plus O(its tombstones) for each
// volume already past the raw threshold.
func (s *PackStore) compactCandidate() *packVolume {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best *packVolume
	var bestRatio float64
	for id, v := range s.volumes {
		if id == s.activeID {
			continue // still being appended to
		}
		size := v.size.Load()
		if size == 0 {
			continue
		}
		reclaim := v.dead.Load()
		if float64(reclaim)/float64(size) < s.cfg.CompactThreshold {
			continue // under it on the upper bound: no tombstone can matter
		}
		for key := range v.tombs {
			if s.tombstoneNeeded(key, v) {
				reclaim -= packRecLen(key, 0)
			}
		}
		ratio := float64(reclaim) / float64(size)
		if ratio >= s.cfg.CompactThreshold && (ratio > bestRatio || (ratio == bestRatio && id < best.id)) {
			best, bestRatio = v, ratio
		}
	}
	return best
}

// CompactNow synchronously compacts until no sealed volume crosses the
// dead-ratio threshold. The background loop calls it when Delete kicks
// it; tests call it directly for determinism.
func (s *PackStore) CompactNow() error {
	s.cmu.Lock()
	defer s.cmu.Unlock()
	for {
		v := s.compactCandidate()
		if v == nil {
			return nil
		}
		if err := s.compactVolume(v); err != nil {
			return err
		}
	}
}

// compactVolume moves v's live records to the active volume, rewrites
// any of v's tombstones that still mask an older put, then removes the
// volume file.
//
// Each record is copied under wmu, held across check, pread, append and
// index swap. Put and Delete append under the same lock, so a Delete
// lands either before the check (the record is skipped) or after the
// swap (its tombstone follows the copy on disk): replay order equals
// the order the index saw, and a reopen brings back nothing a Delete
// returned from. Writers wait for one record's copy at a time. Readers
// wait only for the index swap: they hold mu shared across their
// copies, and the volume is unmapped only after it has left the
// volumes map, which happens once the index no longer references it.
func (s *PackStore) compactVolume(v *packVolume) error {
	type liveRec struct {
		key string
		loc packLoc
	}
	var live []liveRec
	tombs := make([]string, 0, len(v.tombs))
	s.mu.RLock()
	for key, loc := range s.index {
		if loc.vol == v.id {
			live = append(live, liveRec{key, loc})
		}
	}
	for key := range v.tombs {
		tombs = append(tombs, key)
	}
	s.mu.RUnlock()
	sort.Slice(live, func(i, j int) bool { return live[i].loc.off < live[j].loc.off })
	sort.Strings(tombs)

	for _, r := range live {
		if err := s.moveRecord(v, r.key, r.loc); err != nil {
			return err
		}
	}

	// A tombstone must outlive its volume while another volume still
	// holds a stale put for its key — dropping it would let a reopen
	// replay that put and resurrect deleted data. If the key is live
	// again, or no stale put survives anywhere, the tombstone is
	// dropped (a rewrite after a re-put record would kill the live
	// block; an unmasked tombstone is pure dead weight). Checking under
	// wmu keeps a concurrent re-put from interleaving between check and
	// append.
	for _, key := range tombs {
		s.wmu.Lock()
		s.mu.RLock()
		needed := s.tombstoneNeeded(key, v)
		s.mu.RUnlock()
		if !needed {
			s.wmu.Unlock()
			continue
		}
		nv, _, err := s.appendLocked(recTombstone, key, nil)
		if err != nil {
			s.wmu.Unlock()
			return err
		}
		s.mu.Lock()
		nv.dead.Add(packRecLen(key, 0))
		nv.tombs[key] = struct{}{}
		s.mu.Unlock()
		s.wmu.Unlock()
	}

	// The moved records must be durable before the only other copy of
	// them disappears with the volume file.
	if err := s.Flush(); err != nil {
		return err
	}
	s.mu.Lock()
	for key := range v.stale {
		if s.staleRefs[key]--; s.staleRefs[key] == 0 {
			delete(s.staleRefs, key)
		}
	}
	delete(s.volumes, v.id)
	s.mu.Unlock()
	v.release()
	rmErr := os.Remove(v.path)
	s.reg.Load().Counter("pack_compactions", "store", "pack").Inc()
	s.publishGauges()
	if rmErr != nil {
		return fmt.Errorf("block: packstore: %w", rmErr)
	}
	return nil
}

// moveRecord re-appends the record compactVolume found at loc in v and
// points the index at the copy, unless the key was deleted since the
// snapshot. It holds wmu throughout (see compactVolume), and mu shared
// across the check and the copy out of v's mapping, so Close cannot
// release the mapping under it. v is sealed, so rotation has already
// written all of it to the file.
func (s *PackStore) moveRecord(v *packVolume, key string, loc packLoc) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.RLock()
	if cur, ok := s.index[key]; !ok || cur != loc {
		s.mu.RUnlock()
		return nil // deleted (and perhaps re-put) since the snapshot
	}
	data := make([]byte, loc.n)
	err := readMapped(data, v.m, loc.off)
	s.mu.RUnlock()
	if err != nil {
		return fmt.Errorf("block: packstore: compact %s: %w", v.path, err)
	}
	nv, off, err := s.appendLocked(recPut, key, data)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.index[key] = packLoc{vol: nv.id, off: off + packHeaderLen + int64(len(key)), n: loc.n}
	s.markStale(key, loc)
	s.mu.Unlock()
	return nil
}

func (s *PackStore) background() {
	defer s.bg.Done()
	t := time.NewTicker(s.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		// A write-out or fsync failure in either sticks in s.err, so the
		// next Put, Delete, Flush or Close reports it.
		case <-t.C:
			s.Flush()
		case <-s.kick:
			s.CompactNow()
		}
	}
}

// Close stops the background worker, flushes the active volume, drops
// the index and releases every volume's mapping and file. After Close,
// Put and Get fail, Delete deletes nothing and Has reports false.
func (s *PackStore) Close() error {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.bg.Wait()
		s.closeErr = s.Flush()
		s.wmu.Lock()
		s.failLocked(errPackClosed)
		s.wmu.Unlock()
		s.mu.Lock()
		s.index = nil
		s.releaseVolumes()
		s.mu.Unlock()
	})
	return s.closeErr
}

// SetMetrics points the store at a telemetry registry so /debug/metrics
// shows storage health; core.Node wires this automatically. All
// reporting is a no-op until set.
func (s *PackStore) SetMetrics(reg *telemetry.Registry) {
	s.reg.Store(reg)
	s.publishGauges()
}

func (s *PackStore) publishGauges() {
	reg := s.reg.Load()
	if reg == nil {
		return
	}
	live, dead, n := s.usage()
	reg.Gauge("pack_live_bytes").Set(float64(live))
	reg.Gauge("pack_dead_bytes").Set(float64(dead))
	reg.Gauge("pack_volumes").Set(float64(n))
}

func (s *PackStore) usage() (live, dead int64, volumes int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, v := range s.volumes {
		sz, dd := v.size.Load(), v.dead.Load()
		live += sz - dd
		dead += dd
	}
	return live, dead, len(s.volumes)
}

// LiveBytes returns the bytes of live (indexed) records across volumes.
func (s *PackStore) LiveBytes() int64 { live, _, _ := s.usage(); return live }

// DeadBytes returns the bytes awaiting compaction: overwritten or
// deleted records, tombstones, and torn tails in sealed volumes.
func (s *PackStore) DeadBytes() int64 { _, dead, _ := s.usage(); return dead }

// VolumeCount returns the number of volume files.
func (s *PackStore) VolumeCount() int { _, _, n := s.usage(); return n }

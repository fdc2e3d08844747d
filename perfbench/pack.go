package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/block"
	"repro/internal/multicodec"
	"repro/internal/telemetry"
	"repro/ipfs"
)

// compactScans is how many CompactNow calls the traced pass times after
// the window.
const compactScans = 5

// packEnv is one built pack_mixed system: a pack store preloaded with
// live blocks. Block i carries i in its first bytes, so a Get's payload
// is checked without keeping a copy.
type packEnv struct {
	cfg      *config
	dir      string
	ps       *block.PackStore
	base     []byte
	cids     []ipfs.Cid // by block number; [head, len) are live
	head     int
	loadMBps float64
}

// cfgStore is the store as shipped — its own goroutine fsyncs every
// flush interval and compacts when a Delete kicks it — with one
// non-default: small volumes, so a short run spans many sealed volumes
// and several compactions.
func (e *packEnv) cfgStore() block.PackConfig {
	return block.PackConfig{VolumeSizeCap: e.cfg.sz.packVolCap}
}

func setupPack(_ context.Context, cfg *config) (env, error) {
	e := &packEnv{cfg: cfg, dir: filepath.Join(cfg.workdir, fmt.Sprintf("pack-%d-%d", os.Getpid(), cfg.seed))}
	if err := os.RemoveAll(e.dir); err != nil {
		return nil, err
	}
	var err error
	if e.ps, err = block.NewPackStore(e.dir, e.cfgStore()); err != nil {
		return nil, err
	}
	e.base = make([]byte, cfg.sz.packBlock)
	rand.New(rand.NewSource(mix64(cfg.seed, 100))).Read(e.base)
	t0 := time.Now()
	for i := 0; i < cfg.sz.packPreload; i++ {
		if err := e.put(); err != nil {
			e.close()
			return nil, fmt.Errorf("pack_mixed: preload: %w", err)
		}
	}
	if err := e.ps.Flush(); err != nil {
		e.close()
		return nil, fmt.Errorf("pack_mixed: preload flush: %w", err)
	}
	e.loadMBps = float64(cfg.sz.packPreload*cfg.sz.packBlock) / 1e6 / time.Since(t0).Seconds()
	return e, nil
}

// newBlock builds the next numbered block.
func (e *packEnv) newBlock() block.Block {
	binary.LittleEndian.PutUint64(e.base, uint64(len(e.cids)))
	binary.LittleEndian.PutUint64(e.base[8:], uint64(e.cfg.seed))
	return block.New(multicodec.Raw, e.base)
}

func (e *packEnv) put() error {
	blk := e.newBlock()
	if err := e.ps.Put(blk); err != nil {
		return err
	}
	e.cids = append(e.cids, blk.Cid())
	return nil
}

// holds reports whether data is block i's payload.
func (e *packEnv) holds(data []byte, i int) bool {
	return len(data) == e.cfg.sz.packBlock && binary.LittleEndian.Uint64(data) == uint64(i)
}

func (e *packEnv) close() {
	if e.ps != nil {
		e.ps.Close()
		e.ps = nil
	}
	os.RemoveAll(e.dir)
}

func (e *packEnv) run(_ context.Context, m *measurement) error {
	cfg := e.cfg
	nOps := int(cfg.sz.packOpsPerSec*cfg.seconds + 0.5)
	rng := rand.New(rand.NewSource(mix64(cfg.seed, 200)))
	spans := m.tr.lane(0)
	var delNs sample
	// The store's own counters say how often it compacted; they are on in
	// the traced pass only, as part of what tracing costs.
	reg := telemetry.NewRegistry()
	if m.tr != nil {
		e.ps.SetMetrics(reg)
	}

	m.mem.begin()
	start := time.Now()
	for op := 0; op < nOps; op++ {
		switch x := rng.Float64(); {
		case x < 0.70 || e.head >= len(e.cids)-1: // Get, uniform over live
			i := e.head + rng.Intn(len(e.cids)-e.head)
			t0 := time.Now()
			blk, err := e.ps.Get(e.cids[i])
			t1 := time.Now()
			data := blk.Data()
			if cfg.corruptOp && op == 0 && len(data) > 0 {
				data = append([]byte{^data[0]}, data[1:]...)
			}
			if err != nil || !e.holds(data, i) {
				m.failed++
				continue
			}
			m.ok(cfg.sz.packBlock)
			m.read.add(t1.Sub(t0))
			spans.add(op, 0, "pack-get", t0, t1)
		case x < 0.85: // Put a new block
			blk := e.newBlock()
			t0 := time.Now()
			err := e.ps.Put(blk)
			t1 := time.Now()
			if err != nil {
				m.failed++
				continue
			}
			e.cids = append(e.cids, blk.Cid())
			m.ok(cfg.sz.packBlock)
			m.write.add(t1.Sub(t0))
			spans.add(op, 0, "pack-put", t0, t1)
		default: // Delete the oldest live block
			t0 := time.Now()
			e.ps.Delete(e.cids[e.head])
			t1 := time.Now()
			e.head++
			m.ok(0)
			delNs.add(t1.Sub(t0))
			spans.add(op, 0, "pack-delete", t0, t1)
		}
	}
	m.window = time.Since(start)
	m.mem.end()
	m.ttfb = m.read // Get hands back the whole block

	live, dead, volumes := e.ps.LiveBytes(), e.ps.DeadBytes(), e.ps.VolumeCount()
	// What one more Delete's kick would cost now: CompactNow finishes
	// whatever the store's own loop still owes, then only scans.
	var scanNs sample
	for i := 0; i < compactScans && m.tr != nil; i++ {
		t0 := time.Now()
		if err := e.ps.CompactNow(); err != nil {
			return fmt.Errorf("pack_mixed: compact: %w", err)
		}
		scanNs.add(time.Since(t0))
	}

	// Restart: close, reopen, audit every CID.
	if err := e.ps.Close(); err != nil {
		return fmt.Errorf("pack_mixed: close: %w", err)
	}
	e.ps = nil
	disk, err := dirBytes(e.dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	ps, err := block.NewPackStore(e.dir, e.cfgStore())
	if err != nil {
		return fmt.Errorf("pack_mixed: reopen: %w", err)
	}
	reopen := time.Since(t0)
	e.ps = ps
	resurrected, missing := 0, 0
	for i, c := range e.cids {
		if i < e.head {
			if ps.Has(c) {
				resurrected++
			}
			continue
		}
		if blk, err := ps.Get(c); err != nil || !e.holds(blk.Data(), i) {
			missing++
		}
	}
	// A live block that is gone or wrong aborts the run. A deleted block
	// that is back is the store's Delete/compactor race (README, Known
	// findings): no operation returned a wrong output, and how many come
	// back differs from run to run of one seed, so it is not a failed
	// operation but a count of its own, block.pack.reopen_resurrected.
	if resurrected > 0 {
		m.note("reopen audit: %d deleted blocks are back (block.pack.reopen_resurrected; README, Known findings)", resurrected)
	}
	if missing > 0 {
		return fmt.Errorf("pack_mixed: reopen audit: %d of %d live blocks missing or wrong", missing, len(e.cids)-e.head)
	}
	if m.tr == nil {
		return nil
	}

	get, put := m.tr.durations("pack-get"), m.tr.durations("pack-put")
	m.setN("block.pack.get_p99_us", get.quantile(0.99)/nsPerUs, len(get))
	m.setN("block.pack.put_p90_us", put.quantile(0.9)/nsPerUs, len(put))
	m.setN("block.pack.put_p99_us", put.quantile(0.99)/nsPerUs, len(put))
	m.setN("block.pack.delete_p50_us", delNs.quantile(0.5)/nsPerUs, len(delNs))
	m.set("block.pack.compactions", reg.Counter("pack_compactions", "store", "pack").Value())
	m.setN("block.pack.compact_scan_p50_us", scanNs.quantile(0.5)/nsPerUs, len(scanNs))
	m.set("block.pack.dead_ratio_end", ratio(float64(dead), float64(live+dead)))
	m.set("block.pack.volumes_end", float64(volumes))
	m.set("block.pack.space_amp", ratio(float64(disk), float64(live)))
	m.set("block.pack.load_mb_per_s", e.loadMBps)
	m.set("block.pack.reopen_ms", float64(reopen)/nsPerMs)
	m.set("block.pack.reopen_missing", float64(missing))
	m.set("block.pack.reopen_resurrected", float64(resurrected))
	return nil
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, de := range entries {
		info, err := de.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeConfig is every workload and probe at a size that finishes in
// about a second, smaller still under -short.
func smokeConfig(t *testing.T) *config {
	seconds := 0.4
	if testing.Short() {
		seconds = 0.2
	}
	return &config{
		seed: 7, seconds: seconds, warmup: 0.1, clients: 2, setups: 1,
		workdir: t.TempDir(),
		sz: sizes{
			gwObjects: 60, gwMedian: 4 << 10, gwMax: 64 << 10,
			gwNginx: 64 << 10, gwStore: 256 << 10, gwDirect: 200,
			tcpNodes: 4, tcpPayload: 64 << 10,
			simPeers: 150, simPublishers: 2, simObjects: 4, simObjBytes: 8 << 10,
			simClients: 4, simOpsPerSec: 10, simBallast: 4,
			packPreload: 2000, packBlock: 1 << 10, packOpsPerSec: 25000, packVolCap: 1 << 20,
			probeScale: 0.002,
		},
	}
}

// TestBenchmarkJSONMatchesHarness pins BENCHMARK.json, which the driver
// reads, to the tables the harness emits from; every run of the binary
// makes the same check.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadBenchmarkJSON(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.matchesHarness(); err != nil {
		t.Error(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %v, want [perfbench]", b.Paths)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		if _, ok := findWorkload(d.On); !ok && d.On != onEvery && d.On != onProbe {
			t.Errorf("%s: measured on unknown workload %q", d.Name, d.On)
		}
	}
}

// checkEmitted asserts got holds exactly the metrics of defs, once each,
// with finite values.
func checkEmitted(t *testing.T, what string, got []metric, defs []metricDef) map[string]float64 {
	t.Helper()
	vals := map[string]float64{}
	for _, m := range got {
		if _, dup := vals[m.Name]; dup {
			t.Errorf("%s: %s emitted twice", what, m.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s = %v, want a finite value", what, m.Name, m.Value)
		}
		vals[m.Name] = m.Value
	}
	for _, d := range defs {
		if _, ok := vals[d.Name]; !ok {
			t.Errorf("%s: %s not emitted", what, d.Name)
		}
	}
	if len(vals) != len(defs) {
		t.Errorf("%s: %d metrics emitted, want %d", what, len(vals), len(defs))
	}
	return vals
}

// zeroOK are the ledger's counters that are rightly 0 on a clean, tiny
// run.
var zeroOK = map[string]bool{
	"simtime.stalls": true, "simnet.dropped": true,
	"block.pack.reopen_missing": true, "block.pack.reopen_resurrected": true,
	"block.pack.compactions":            true,
	"gateway.fetch_direct_nodestore_ns": true,
	"proc.gc_pause_total_ms":            true,
}

// TestSmoke runs all four workloads at tiny scale and checks that every
// end-to-end metric of BENCHMARK.json comes out, that the outputs
// verify, and that one damaged output does not.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, err := runWorkload(ctx, w, cfg, t.TempDir(), io.Discard, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for name, v := range checkEmitted(t, "untraced", res.EndToEnd, endToEnd) {
				if v <= 0 {
					t.Errorf("%s = %v, want > 0 (the driver refuses a metric that is 0)", name, v)
				}
			}

			cfg.corruptOp = true
			res, err = runWorkload(ctx, w, cfg, t.TempDir(), io.Discard, false)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed != 1 {
				t.Errorf("one damaged output: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
			}
		})
	}
}

func defsOn(on ...string) []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		for _, o := range on {
			if d.On == o {
				out = append(out, d)
			}
		}
	}
	return out
}

func checkMeasured(t *testing.T, vals map[string]float64) {
	t.Helper()
	for name, v := range vals {
		if v == 0 && !zeroOK[name] {
			t.Errorf("%s = 0: not measured", name)
		}
	}
}

// TestSmokeTraced runs each workload's traced run and the probes as
// -workload all does, and checks that every per-layer metric of
// BENCHMARK.json comes out exactly once from the workload it belongs
// to, with a span file.
func TestSmokeTraced(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			cfg := smokeConfig(t)
			cfg.trace = true
			out := t.TempDir()
			res, err := runWorkload(ctx, w, cfg, out, io.Discard, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Errorf("correct=false, failed=%d", res.Failed)
			}
			checkMeasured(t, checkEmitted(t, "traced", res.PerLayer, defsOn(w.Name, onEvery)))
			if st, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".jsonl")); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
	t.Run(onProbe, func(t *testing.T) {
		res, err := runProbesAlone(ctx, smokeConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		checkMeasured(t, checkEmitted(t, "probes", res.PerLayer, defsOn(onProbe)))
	})
}

// TestSmokeDriverForm runs one traced run as the driver does — one
// workload named, every per-layer metric wanted — and checks the whole
// ledger comes out with the attribution identities.
func TestSmokeDriverForm(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads once more")
	}
	w, _ := findWorkload(wlSim)
	cfg := smokeConfig(t)
	cfg.trace = true
	res, err := runWorkload(context.Background(), w, cfg, t.TempDir(), io.Discard, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("correct=false, failed=%d", res.Failed)
	}
	checkMeasured(t, checkEmitted(t, "traced", res.PerLayer, perLayer))
	if len(res.Notes) < 2 {
		t.Errorf("notes %q: want the run summary and the attribution identity", res.Notes)
	}
	var line struct {
		Metrics map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil || len(line.Metrics) != len(perLayer) {
		t.Errorf("driver line: %v, %d metrics, want %d", err, len(line.Metrics), len(perLayer))
	}
}

// TestCompare checks the A/A verdict and that a worsened metric past
// its bound fails it.
func TestCompare(t *testing.T) {
	mk := func(scale float64) runFile {
		var f runFile
		for _, w := range workloads {
			r := result{Workload: w.Name, Correct: true, Attempted: 100}
			for _, d := range endToEnd {
				v := 10.0
				if d.Name == "latency_p90_ms" {
					v *= scale
				}
				r.EndToEnd = append(r.EndToEnd, metric{Name: d.Name, Unit: d.Unit, Value: v})
			}
			f.Results = append(f.Results, r)
		}
		return f
	}
	dir := t.TempDir()
	a, same, worse := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "worse.json")
	for path, f := range map[string]runFile{a: mk(1), same: mk(1.2), worse: mk(1.3)} {
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if ok, err := compareFiles(&buf, a, same); err != nil || !ok {
		t.Errorf("20%% worse latency_p90_ms (bound 25%%): ok=%v err=%v\n%s", ok, err, buf.String())
	}
	buf.Reset()
	if ok, err := compareFiles(&buf, a, worse); err != nil || ok {
		t.Errorf("30%% worse latency_p90_ms (bound 25%%): ok=%v err=%v\n%s", ok, err, buf.String())
	}

	// A file that lacks a workload, or a metric, the other has is an
	// error, not an improvement.
	short := mk(1)
	short.Results = short.Results[1:]
	thin := mk(1)
	thin.Results[0].EndToEnd = thin.Results[0].EndToEnd[1:]
	for name, f := range map[string]runFile{"workload": short, "metric": thin} {
		path := filepath.Join(dir, "missing-"+name+".json")
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		if ok, err := compareFiles(io.Discard, a, path); err == nil || ok {
			t.Errorf("file missing a %s: ok=%v err=%v, want an error", name, ok, err)
		}
	}
}

// Command perfbench is this repository's benchmark: four wall-clock
// workloads that drive the system through its public functions, seven
// end-to-end metrics with regression bounds, and a per-layer cost ledger
// from a separate traced run. See README.md.
//
//	go run . -workload all                 # every workload, untraced then traced
//	go run . -workload tcp_pubret -trace 1 # one workload's per-layer numbers
//	go run . -compare a.json b.json        # two sets of runs against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 0, "measured window in seconds (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run and probes, per-layer metrics")
		clients  = flag.Int("clients", 2, "closed-loop client goroutines of the real-time workloads")
		runs     = flag.Int("runs", 1, "with -workload all: repeat with seeds seed..seed+runs-1")
		compare  = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	)
	flag.Parse()
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	bench, err := loadBenchmarkJSON(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if err := bench.matchesHarness(); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json and perfbench/metrics.go disagree: %w", err))
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: perfbench -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		fatal(fmt.Errorf("-clients %d: want 1..%d (nproc): more closed-loop clients than CPUs measure the run queue", *clients, runtime.NumCPU()))
	}
	if *seconds <= 0 {
		*seconds = float64(bench.RunSeconds)
	}
	cfg := &config{
		seed: *seed, seconds: *seconds, warmup: warmupFor(*seconds), clients: *clients,
		setups: 3, setupBudget: 1.5, trace: *trace != 0,
		workdir: filepath.Join(root, ".bench_build", "tmp"),
		sz:      fullSizes,
	}
	outDir := filepath.Join(root, "perfbench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()

	if *workload == "all" {
		if err := runAll(ctx, cfg, *runs, outDir); err != nil {
			fatal(err)
		}
		return
	}

	w, ok := findWorkload(*workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	// One workload is the driver's form: a traced run then reports every
	// per-layer metric of BENCHMARK.json, the other workloads' too.
	res, err := runWorkload(ctx, w, cfg, outDir, os.Stdout, true)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.Name, err))
	}
	printResult(os.Stdout, res)
	if err := writeJSON(filepath.Join(outDir, w.Name+".json"), runFile{Header: newHeader(cfg), Results: []result{res}}); err != nil {
		fatal(err)
	}
	fmt.Println(driverLine(res))
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll is -workload all: per seed, each workload untraced and then
// traced for its own layers, and the probes once at the end, so nothing
// is measured twice. It writes out/<workload>.json, out/probes.json and
// out/all.json.
func runAll(ctx context.Context, cfg *config, runs int, outDir string) error {
	hdr := newHeader(cfg)
	hdr.Seeds = nil
	var all []result
	byWorkload := map[string][]result{}
	keep := func(res result) {
		printResult(os.Stdout, res)
		all = append(all, res)
		byWorkload[res.Workload] = append(byWorkload[res.Workload], res)
	}
	for r := 0; r < runs; r++ {
		c := *cfg
		c.seed = cfg.seed + int64(r)
		hdr.Seeds = append(hdr.Seeds, c.seed)
		var simTraced result
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				c.trace = traced
				res, err := runWorkload(ctx, w, &c, outDir, os.Stdout, false)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				keep(res)
				if traced && w.Name == wlSim {
					simTraced = res
				}
			}
		}
		probes, err := runProbesAlone(ctx, &c)
		if err != nil {
			return err
		}
		// sim_retrieve's identity needs its own counts and the probes'
		// costs, so it is noted here.
		probes.Notes = append(probes.Notes, simIdentity(func(name string) float64 {
			for _, pm := range append(simTraced.PerLayer, probes.PerLayer...) {
				if pm.Name == name {
					return pm.Value
				}
			}
			return 0
		}))
		keep(probes)
	}
	byWorkload["all"] = all
	for name, rs := range byWorkload {
		if err := writeJSON(filepath.Join(outDir, name+".json"), runFile{Header: hdr, Results: rs}); err != nil {
			return err
		}
	}
	for _, res := range all {
		if !res.Correct {
			return fmt.Errorf("%s seed %d: outputs failed verification", res.Workload, res.Seed)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// warmupFor is the unmeasured load before a real-time window: 3 s at
// the benchmark's length, shorter for shorter windows.
func warmupFor(seconds float64) float64 {
	if w := 0.3 * seconds; w < 3 {
		return w
	}
	return 3
}

// ledgerShare is the share of the window the other three workloads run
// for in the driver's traced run. The driver's contract (README, "The
// driver's contract") wants every per-layer metric of BENCHMARK.json
// from every traced run and refuses a time that reads the same on every
// run, so another workload's row can be neither left out nor reported as
// 0: it is measured, briefly. Such a row is a filler; a row is read from
// the traced run of the workload that owns it (metricDef.On).
const ledgerShare = 0.3

// setupTimed builds one instance of w's system and returns how long
// that took.
func setupTimed(ctx context.Context, w workloadDef, cfg *config) (env, float64, error) {
	runtime.GC() // the previous instance's garbage is not this set-up's cost
	t0 := time.Now()
	e, err := w.setup(ctx, cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return e, time.Since(t0).Seconds(), nil
}

// measureOn runs the workload on e, recording spans into tr when it is
// not nil, and tears e down.
func measureOn(ctx context.Context, e env, tr *tracer) (*measurement, error) {
	defer e.close()
	m := newMeasurement(tr)
	if err := e.run(ctx, m); err != nil {
		return nil, err
	}
	return m, nil
}

// runWorkload runs one workload once and returns its end-to-end metrics
// (cfg.trace off) or its per-layer metrics (cfg.trace on). With
// fillLedger a traced run also measures the other workloads' layers and
// the probes, so that its result holds every per-layer metric.
func runWorkload(ctx context.Context, w workloadDef, cfg *config, outDir string, log io.Writer, fillLedger bool) (result, error) {
	res := result{Workload: w.Name, Seed: cfg.seed, Traced: cfg.trace}
	if cfg.trace {
		return runTraced(ctx, w, cfg, outDir, log, res, fillLedger)
	}

	// Set up cfg.setups times, and up to three times as often while that
	// costs under cfg.setupBudget seconds in all, so a set-up of tens of
	// milliseconds is a median of more than three timings. The last
	// instance is the one measured.
	var e env
	var setupS []float64
	for total := 0.0; ; {
		var s float64
		var err error
		if e, s, err = setupTimed(ctx, w, cfg); err != nil {
			return res, err
		}
		setupS = append(setupS, s)
		total += s
		if n := len(setupS); n >= cfg.setups && (total >= cfg.setupBudget || n >= 3*cfg.setups) {
			break
		}
		e.close()
	}
	m, err := measureOn(ctx, e, nil)
	if err != nil {
		return res, err
	}
	res.fill(m)
	for _, d := range endToEnd {
		var v float64
		var n int
		switch d.Name {
		case "setup_s":
			v, n = median(setupS), len(setupS)
		case "ops_per_s":
			v = m.opsPerS()
		case "mb_per_s":
			v = ratio(float64(m.bytes)/1e6, m.window.Seconds())
		case "latency_p50_ms":
			v, n = m.read.quantile(0.5)/nsPerMs, len(m.read)
		case "latency_p90_ms":
			v, n = m.read.quantile(0.9)/nsPerMs, len(m.read)
		case "ttfb_p90_ms":
			v, n = m.ttfb.quantile(0.9)/nsPerMs, len(m.ttfb)
		case "write_p50_ms":
			v, n = m.write.quantile(0.5)/nsPerMs, len(m.write)
		}
		res.EndToEnd = append(res.EndToEnd, metric{Name: d.Name, Unit: d.Unit, Value: v, N: n})
	}
	return res, nil
}

// tracerLanes is the span buffers a traced pass needs: one per client
// goroutine or virtual-time actor.
func tracerLanes(cfg *config) int {
	if n := cfg.sz.simPublishers + cfg.sz.simClients; n > cfg.clients {
		return n
	}
	return cfg.clients
}

// tracedPass sets w up and measures it once, with spans when tr is not nil.
func tracedPass(ctx context.Context, w workloadDef, cfg *config, tr *tracer) (*measurement, error) {
	e, _, err := setupTimed(ctx, w, cfg)
	if err != nil {
		return nil, err
	}
	return measureOn(ctx, e, tr)
}

// runTraced measures w twice — spans off, then on; the ratio of the two
// rates is the tracing overhead — and reads the process's memory figures
// straight after. It writes w's spans and prints their self times. With
// fillLedger it then runs the other workloads traced for ledgerShare of
// the window, and the probes.
func runTraced(ctx context.Context, w workloadDef, cfg *config, outDir string, log io.Writer, res result, fillLedger bool) (result, error) {
	plain, err := tracedPass(ctx, w, cfg, nil)
	if err != nil {
		return res, err
	}
	tr := newTracer(tracerLanes(cfg))
	m, err := tracedPass(ctx, w, cfg, tr)
	if err != nil {
		return res, err
	}
	m.set("trace.overhead_ratio", ratio(m.opsPerS(), plain.opsPerS()))
	procMetrics(m)

	spans := tr.all()
	if err := writeJSONL(filepath.Join(outDir, "trace-"+w.Name+".jsonl"), spans); err != nil {
		return res, err
	}
	fmt.Fprintf(log, "%s: self time per span name (%d spans)\n", w.Name, len(spans))
	printSelfTimes(log, selfTimes(spans))

	if fillLedger {
		short := *cfg
		short.seconds = cfg.seconds * ledgerShare
		short.warmup = warmupFor(short.seconds)
		for _, o := range workloads {
			if o.Name == w.Name {
				continue
			}
			om, err := tracedPass(ctx, o, &short, newTracer(tracerLanes(cfg)))
			if err != nil {
				return res, fmt.Errorf("ledger pass of %s: %w", o.Name, err)
			}
			if om.failed > 0 {
				return res, fmt.Errorf("ledger pass of %s: %d outputs failed verification", o.Name, om.failed)
			}
			for name, v := range om.layer {
				m.layer[name] = v
			}
		}
		if err := runProbes(ctx, cfg, m); err != nil {
			return res, fmt.Errorf("probes: %w", err)
		}
		if w.Name == wlSim {
			m.notes = append(m.notes, simIdentity(func(name string) float64 { return m.layer[name].Value }))
		}
	}
	res.fill(m)
	res.PerLayer = ledger(m, func(d metricDef) bool {
		return fillLedger || d.On == w.Name || d.On == onEvery
	})
	return res, nil
}

// runProbesAlone runs the isolated probes as a result of their own, for
// -workload all.
func runProbesAlone(ctx context.Context, cfg *config) (result, error) {
	m := newMeasurement(nil)
	if err := runProbes(ctx, cfg, m); err != nil {
		return result{}, fmt.Errorf("probes: %w", err)
	}
	res := result{Workload: onProbe, Seed: cfg.seed, Traced: true, Correct: true}
	res.PerLayer = ledger(m, func(d metricDef) bool { return d.On == onProbe })
	return res, nil
}

// ledger lists the per-layer metrics that want selects, in the order of
// BENCHMARK.json, with what m measured for each.
func ledger(m *measurement, want func(metricDef) bool) []metric {
	var out []metric
	for _, d := range perLayer {
		if want(d) {
			got := m.layer[d.Name]
			out = append(out, metric{Name: d.Name, Unit: d.Unit, Value: got.Value, N: got.N, On: d.On})
		}
	}
	return out
}

// simIdentity says how much of sim_retrieve's scheduler run the probes'
// per-event and per-RPC costs account for; layer looks a per-layer value
// up by name.
func simIdentity(layer func(name string) float64) string {
	wall := layer("simtime.run_wall_s")
	ev := layer("simtime.events") * layer("simtime.sleep_wake_ns") / 1e9
	rp := layer("simnet.rpcs") * layer("simnet.rpc_ns") / 1e9
	return fmt.Sprintf("sim wall %.3f s = events x simtime.sleep_wake_ns %.3f + rpcs x simnet.rpc_ns %.3f + residual %.3f",
		wall, ev, rp, wall-ev-rp)
}

// fill copies a measurement's counts into the result.
func (r *result) fill(m *measurement) {
	r.Attempted = m.ops + m.failed
	r.Failed = m.failed
	r.FailedRatio = ratio(float64(m.failed), float64(r.Attempted))
	r.Correct = m.ops > 0 && m.failed == 0
	r.WindowS = m.window.Seconds()
	r.WarmRequests = m.warm
	r.Notes = m.notes
}

func printResult(w io.Writer, r result) {
	mode, ms := "untraced, end-to-end", r.EndToEnd
	if r.Traced {
		mode, ms = "traced, per-layer", r.PerLayer
	}
	if r.Workload == onProbe {
		fmt.Fprintf(w, "%s seed %d (isolated calls, per-layer), loopback\n", r.Workload, r.Seed)
	} else {
		fmt.Fprintf(w, "%s seed %d (%s): window %.2f s, attempted %d, failed %d (failed_ratio %.6f), loopback\n",
			r.Workload, r.Seed, mode, r.WindowS, r.Attempted, r.Failed, r.FailedRatio)
	}
	if r.WarmRequests > 0 {
		fmt.Fprintf(w, "  %-36s %14d count\n", "gateway.warm_requests", r.WarmRequests)
	}
	row := func(m metric) {
		if m.N > 0 {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	var fillers []metric
	for _, m := range ms {
		if m.On == "" || m.On == r.Workload || m.On == onEvery || m.On == onProbe {
			row(m)
		} else {
			fillers = append(fillers, m)
		}
	}
	if len(fillers) > 0 {
		fmt.Fprintf(w, "  other workloads' layers, measured for %.1f of the window; read them from those workloads' traced runs:\n", ledgerShare)
		for _, m := range fillers {
			row(m)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// driverLine is the one-object summary the benchmark driver reads from
// the last line of standard output.
func driverLine(r result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.EndToEnd
	if r.Traced {
		ms = r.PerLayer
	}
	metrics := make(map[string]mv, len(ms))
	for _, m := range ms {
		metrics[m.Name] = mv{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		fatal(err) // a NaN or Inf metric value
	}
	return string(line)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

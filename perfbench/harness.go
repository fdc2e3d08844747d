package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one run's knobs. The flags fill it for real runs; the smoke
// test fills it with tiny sizes.
type config struct {
	seed    int64
	seconds float64 // measured window; fixed-work workloads are sized to it
	warmup  float64 // seconds of unmeasured load before the window
	clients int     // closed-loop client goroutines of the real-time workloads
	setups  int     // least number of set-ups per untraced run; setup_s is the median
	// setupBudget is the total set-up time, in seconds, under which an
	// untraced run keeps repeating set-up (up to 3*setups times).
	setupBudget float64
	trace       bool
	workdir     string // scratch directory for pack volumes, inside the checkout
	// corruptOp damages the first measured output before it is checked;
	// the smoke test sets it to see the verifier trip.
	corruptOp bool
	sz        sizes
}

// sizes are the workload dimensions. fullSizes is the benchmark; the
// smoke test shrinks every field.
type sizes struct {
	gwObjects  int   // catalog size
	gwMedian   int   // log-normal median object size
	gwMax      int   // object size cap
	gwNginx    int64 // nginx cache bytes
	gwStore    int64 // gateway node LRU store bytes
	gwDirect   int   // FetchData replays of the traced run
	tcpNodes   int   // full-mesh TCP nodes (<= K = 20)
	tcpPayload int   // bytes per published object

	simPeers      int
	simPublishers int
	simObjects    int
	simObjBytes   int
	simBallast    int // objects published before the retrievable ones and never retrieved
	simClients    int
	simOpsPerSec  float64 // retrievals per client per second of cfg.seconds

	packPreload   int
	packBlock     int
	packOpsPerSec float64 // mixed ops per second of cfg.seconds
	packVolCap    int64

	probeScale float64 // multiplies every probe's iteration count
}

var fullSizes = sizes{
	gwObjects: 2000, gwMedian: 32 << 10, gwMax: 1 << 20,
	gwNginx: 8 << 20, gwStore: 32 << 20, gwDirect: 20000,
	tcpNodes: 16, tcpPayload: 1 << 20,
	simPeers: 2000, simPublishers: 4, simObjects: 64, simObjBytes: 64 << 10,
	simClients: 64, simOpsPerSec: 6, simBallast: 128,
	packPreload: 60000, packBlock: 4 << 10, packOpsPerSec: 8000, packVolCap: 32 << 20,
	probeScale: 1,
}

// metric is one reported number. N is the sample count behind a timing
// (0 for counts and ratios). On, for a per-layer metric, is the workload
// whose traced pass measures it (metricDef.On): under another workload's
// name the row is a short filler.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	On    string  `json:"on,omitempty"`
}

// result is what one run of one workload produced.
type result struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Traced       bool     `json:"traced"`
	Correct      bool     `json:"correct"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	FailedRatio  float64  `json:"failed_ratio"`
	WindowS      float64  `json:"window_s"`
	WarmRequests int      `json:"gateway.warm_requests,omitempty"`
	EndToEnd     []metric `json:"end_to_end,omitempty"`
	PerLayer     []metric `json:"per_layer,omitempty"`
	Notes        []string `json:"notes,omitempty"`
}

// header describes the box and the settings a result file was made with.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seeds      []int64 `json:"seeds"`
	WarmupS    float64 `json:"warmup_s"`
	WindowS    float64 `json:"window_s"`
	Clients    int     `json:"clients"`
	Setups     int     `json:"setups_per_run"`
	Network    string  `json:"network"`
	When       string  `json:"when"`
}

type runFile struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

func newHeader(cfg *config) header {
	return header{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seeds:      []int64{cfg.seed},
		WarmupS:    cfg.warmup,
		WindowS:    cfg.seconds,
		Clients:    cfg.clients,
		Setups:     cfg.setups,
		Network:    "loopback (127.0.0.1, one process); no link rates are reported",
		When:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit names the measured commit, or "unknown" outside a git
// checkout (the driver's copy is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// repoRoot walks up from the working directory to the directory that
// holds BENCHMARK.json, so the harness runs from the root (the driver),
// from perfbench/ (go test, go run .) or from anywhere below.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("perfbench: no BENCHMARK.json in or above the working directory")
		}
		dir = parent
	}
}

// sample is a set of durations in nanoseconds.
type sample []float64

func (s *sample) add(d time.Duration) { *s = append(*s, float64(d)) }

// quantile returns the q-quantile (nearest rank on the sorted sample),
// 0 for an empty sample. It sorts in place.
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(vs []float64) float64 { return sample(append([]float64(nil), vs...)).quantile(0.5) }

const (
	nsPerMs = 1e6
	nsPerUs = 1e3
)

// tally is what one client goroutine counted: its verified operations
// and their payload bytes, its failures, and the timing samples behind
// the latency metrics. Each goroutine fills its own and the workload
// merges them after the window.
type tally struct {
	ops    int // verified operations
	bytes  int64
	failed int    // failed or wrong-bytes operations
	read   sample // the workload's read operation
	write  sample // the workload's write operation
	ttfb   sample // time to the first byte of a read
}

func (t *tally) ok(bytes int) {
	t.ops++
	t.bytes += int64(bytes)
}

func (t *tally) merge(o *tally) {
	t.ops += o.ops
	t.bytes += o.bytes
	t.failed += o.failed
	t.read = append(t.read, o.read...)
	t.write = append(t.write, o.write...)
	t.ttfb = append(t.ttfb, o.ttfb...)
}

// measurement is what a workload's run fills in: the merged tally of
// the measured window, and the per-layer values of a traced run.
type measurement struct {
	tally
	tr     *tracer // nil on the untraced run
	window time.Duration
	warm   int // gw_http_zipf: requests spent filling the caches before the window
	layer  map[string]metric
	notes  []string
	mem    memDelta
}

func newMeasurement(tr *tracer) *measurement {
	return &measurement{tr: tr, layer: map[string]metric{}}
}

// opsPerS is verified operations per second of the window.
func (m *measurement) opsPerS() float64 { return ratio(float64(m.ops), m.window.Seconds()) }

// set records a per-layer value.
func (m *measurement) set(name string, v float64) { m.layer[name] = metric{Name: name, Value: v} }

// setN records a per-layer timing with its sample count.
func (m *measurement) setN(name string, v float64, n int) {
	m.layer[name] = metric{Name: name, Value: v, N: n}
}

func (m *measurement) note(format string, args ...any) {
	m.notes = append(m.notes, fmt.Sprintf(format, args...))
}

// ratio is a/b, 0 when b is 0 (a layer that did no work reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memDelta is the allocator's and the collector's work across a
// measured window.
type memDelta struct {
	mallocs, allocBytes uint64
	before, after       runtime.MemStats
}

func (d *memDelta) begin() { runtime.ReadMemStats(&d.before) }

func (d *memDelta) end() {
	runtime.ReadMemStats(&d.after)
	d.mallocs = d.after.Mallocs - d.before.Mallocs
	d.allocBytes = d.after.TotalAlloc - d.before.TotalAlloc
}

// procMetrics reports the memory figures every workload carries, so
// work moved into memory shows: the heap in use when the window ended,
// the collector's pauses during the window, and the process's
// high-water mark. It is called straight after the workload's traced
// pass. The high-water mark is the process's, not the pass's: under
// -workload all it includes the workloads run before.
func procMetrics(m *measurement) {
	m.set("proc.heap_inuse_mb_end", float64(m.mem.after.HeapInuse)/(1<<20))
	m.set("proc.gc_pause_total_ms", float64(m.mem.after.PauseTotalNs-m.mem.before.PauseTotalNs)/nsPerMs)
	m.set("proc.peak_rss_mb", peakRSSMB())
}

// peakRSSMB reads VmHWM from /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// closedLoop runs one goroutine per client, each calling op(client, i)
// with i counting from 0 until the deadline passes or ctx ends, and
// returns once all have stopped. A client's next operation starts only
// when its previous one returned.
func closedLoop(ctx context.Context, clients int, d time.Duration, op func(client, i int)) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
				op(c, i)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// mix64 is splitmix64: derives independent sub-seeds (node identities,
// per-client request streams) from the run seed.
func mix64(seed int64, lane uint64) int64 {
	z := uint64(seed) + (lane+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1 // 0 means "random identity" to ipfs.NewTCPNode
	}
	return int64(z >> 1)
}

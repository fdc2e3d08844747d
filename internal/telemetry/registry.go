package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/simtime"
	"repro/internal/stats"
)

// Registry is a node's labeled metrics registry: counters, gauges and
// latency metrics keyed by name plus sorted "k=v" labels. Metric
// handles are cheap to re-request, so call sites fetch by name at the
// observation point instead of threading handles through layers.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// metricKey builds the canonical "name{k=v,...}" series key from a
// name and alternating key/value label pairs, labels sorted.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// Counter is a monotonically increasing metric.
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increases the counter.
func (c *Counter) Add(d float64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.v += d
	c.mu.Unlock()
}

// Inc increases the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a set-to-current-value metric.
type Gauge struct {
	mu sync.Mutex
	v  float64
}

// Set stores the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.v = v
	g.mu.Unlock()
}

// Value returns the last value set.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Hist is a latency metric: an exact sample of its observations, so
// percentiles, and their merge across registries, are exact.
type Hist struct {
	mu     sync.Mutex
	sample *stats.Sample
}

// Observe records one observation.
func (h *Hist) Observe(x float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.sample.Add(x)
	h.mu.Unlock()
}

// ObserveDuration records a duration observation in seconds.
func (h *Hist) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Counter returns (creating on first use) the counter for name plus
// alternating key/value label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[key]
	if c == nil {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating on first use) the gauge for name + labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Histogram returns (creating on first use) the latency metric for
// name + labels.
func (r *Registry) Histogram(name string, labels ...string) *Hist {
	if r == nil {
		return nil
	}
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[key]
	if h == nil {
		h = &Hist{sample: stats.NewSample()}
		r.hists[key] = h
	}
	return h
}

// RecordScheduler publishes the dispatcher's introspection counters as
// simtime_* gauges (docs/OPERATIONS.md lists them): call it when the run
// is over, or whenever a reading is wanted.
func (r *Registry) RecordScheduler(s *simtime.Scheduler) {
	s.Counters(func(name string, v float64) { r.Gauge("simtime_" + name).Set(v) })
}

// LatencySnapshot is the exported view of one latency metric.
type LatencySnapshot struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// MetricsSnapshot is a point-in-time export of a registry (or an
// aggregation of several); it marshals deterministically because Go
// maps marshal with sorted keys.
type MetricsSnapshot struct {
	Counters  map[string]float64         `json:"counters"`
	Gauges    map[string]float64         `json:"gauges"`
	Latencies map[string]LatencySnapshot `json:"latencies"`
}

func latencySnapshot(sample *stats.Sample) LatencySnapshot {
	ls := LatencySnapshot{Count: sample.Len()}
	if ls.Count > 0 {
		ls.Mean = sample.Mean()
		ls.P50 = sample.Percentile(50)
		ls.P90 = sample.Percentile(90)
		ls.P99 = sample.Percentile(99)
	}
	return ls
}

// Snapshot exports the registry's current state.
func (r *Registry) Snapshot() MetricsSnapshot { return AggregateRegistries(r) }

// AggregateRegistries merges per-node registries into one network-wide
// snapshot: counters and gauges sum, latency metrics merge their raw
// observations so the aggregated percentiles are exact.
func AggregateRegistries(regs ...*Registry) MetricsSnapshot {
	snap := MetricsSnapshot{
		Counters:  make(map[string]float64),
		Gauges:    make(map[string]float64),
		Latencies: make(map[string]LatencySnapshot),
	}
	samples := make(map[string]*stats.Sample)
	for _, r := range regs {
		if r == nil {
			continue
		}
		r.mu.Lock()
		counters := make(map[string]*Counter, len(r.counters))
		for k, c := range r.counters {
			counters[k] = c
		}
		gauges := make(map[string]*Gauge, len(r.gauges))
		for k, g := range r.gauges {
			gauges[k] = g
		}
		rhists := make(map[string]*Hist, len(r.hists))
		for k, h := range r.hists {
			rhists[k] = h
		}
		r.mu.Unlock()
		for k, c := range counters {
			snap.Counters[k] += c.Value()
		}
		for k, g := range gauges {
			snap.Gauges[k] += g.Value()
		}
		for k, h := range rhists {
			h.mu.Lock()
			merged := samples[k]
			if merged == nil {
				merged = stats.NewSample()
				samples[k] = merged
			}
			for _, x := range h.sample.Values() {
				merged.Add(x)
			}
			h.mu.Unlock()
		}
	}
	for k, merged := range samples {
		snap.Latencies[k] = latencySnapshot(merged)
	}
	return snap
}

// Render formats the snapshot as aligned text tables for the CLI and
// the human side of the debug endpoints.
func (m MetricsSnapshot) Render() string {
	var b strings.Builder
	if len(m.Counters) > 0 {
		t := stats.NewTable("Counter", "Value")
		for _, k := range sortedKeys(m.Counters) {
			t.AddRow(k, fmt.Sprintf("%.0f", m.Counters[k]))
		}
		b.WriteString(t.String())
	}
	if len(m.Gauges) > 0 {
		t := stats.NewTable("Gauge", "Value")
		for _, k := range sortedKeys(m.Gauges) {
			t.AddRow(k, fmt.Sprintf("%.2f", m.Gauges[k]))
		}
		b.WriteString(t.String())
	}
	if len(m.Latencies) > 0 {
		t := stats.NewTable("Latency", "Count", "Mean", "P50", "P90", "P99")
		keys := make([]string, 0, len(m.Latencies))
		for k := range m.Latencies {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			ls := m.Latencies[k]
			t.AddRow(k, ls.Count,
				fmt.Sprintf("%.3f", ls.Mean), fmt.Sprintf("%.3f", ls.P50),
				fmt.Sprintf("%.3f", ls.P90), fmt.Sprintf("%.3f", ls.P99))
		}
		b.WriteString(t.String())
	}
	return b.String()
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// DiscoverP99 returns the 99th percentile of the sim-accurate
// "discover" span duration across the retrieve traces — the tail of
// the provider-discovery phase the paper's delay decomposition
// isolates. Zero when no retrieve traces carry a discover span.
func DiscoverP99(traces []*Trace) time.Duration {
	s := stats.NewSample()
	for _, tr := range traces {
		if tr == nil || tr.Op != "retrieve" {
			continue
		}
		if sp := tr.FindSpan("discover"); sp != nil {
			s.Add(sp.Wall().Seconds())
		}
	}
	if s.Len() == 0 {
		return 0
	}
	return time.Duration(s.Percentile(99) * float64(time.Second))
}

// FirstHopShare returns the fraction of retrieve traces whose discover
// phase resolved a provider within at most one lookup-category RPC —
// the one-hop share the accelerated and indexer routers exist to
// maximize. NaN when no retrieve traces carry a discover span.
func FirstHopShare(traces []*Trace) float64 {
	n, oneHop := 0, 0
	for _, tr := range traces {
		if tr == nil || tr.Op != "retrieve" {
			continue
		}
		sp := tr.FindSpan("discover")
		if sp == nil {
			continue
		}
		n++
		if sp.RPCs("lookup") <= 1 {
			oneHop++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(oneHop) / float64(n)
}

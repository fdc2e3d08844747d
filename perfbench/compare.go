package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"regexp"
)

// benchmarkJSON is the root BENCHMARK.json, the driver's view of this
// benchmark.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(path string) (benchmarkJSON, error) {
	var b benchmarkJSON
	data, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// matchesHarness checks the file against the tables the harness emits
// from (metrics.go): the same workloads, metrics, units, directions and
// bounds, in the same order, every name well-formed and used once.
func (b benchmarkJSON) matchesHarness() error {
	if len(b.Workloads) != len(workloads) {
		return fmt.Errorf("%d workloads against %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := b.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			return fmt.Errorf("workload %d: %q against %q", i, got.Name, w.Name)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		return fmt.Errorf("%d end-to-end and %d per-layer metrics against %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		got := metricDef{On: d.On}
		if i < len(endToEnd) {
			e := b.EndToEnd[i]
			got.Name, got.Unit, got.Better, got.Bound = e.Name, e.Unit, e.Better, e.Bound
		} else {
			l := b.PerLayer[i-len(endToEnd)]
			got.Name, got.Unit, got.Better = l.Name, l.Unit, l.Better
		}
		if got != d {
			return fmt.Errorf("metric %d: %+v against %+v", i, got, d)
		}
		if seen[d.Name] || !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is used twice or malformed", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// failedRatioBound is absolute: failed_ratio may rise by this much.
const failedRatioBound = 0.001

// compareFiles prints, per workload and end-to-end metric, the medians
// of the untraced runs in files a and b, how much worse b is as a share
// of a, and the bound; it reports whether every pair is within bounds.
// Two sets of runs of one commit make the A/A check; parent and change
// make a before/after table.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	ok, compared := true, 0
	for _, wl := range workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) == 0 || len(rb) == 0 {
			return false, fmt.Errorf("%s: %d runs in %s, %d in %s", wl.Name, len(ra), pathA, len(rb), pathB)
		}
		compared++
		fmt.Fprintf(w, "%s (%d and %d runs)\n", wl.Name, len(ra), len(rb))
		fmt.Fprintf(w, "  %-16s %-5s %14s %14s %9s %7s\n", "metric", "unit", "a", "b", "worse", "bound")
		for _, d := range endToEnd {
			va, na := medianOf(ra, d.Name)
			vb, nb := medianOf(rb, d.Name)
			if na != len(ra) || nb != len(rb) {
				return false, fmt.Errorf("%s: %s is in %d of %d runs of %s and %d of %d of %s",
					wl.Name, d.Name, na, len(ra), pathA, nb, len(rb), pathB)
			}
			worse := ratio(vb-va, va)
			if d.Better == higher {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict, ok = "  EXCEEDED", false
			}
			fmt.Fprintf(w, "  %-16s %-5s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", d.Name, d.Unit, va, vb, 100*worse, 100*d.Bound, verdict)
		}
		fa, fb := medianFailed(ra), medianFailed(rb)
		verdict := ""
		if fb-fa > failedRatioBound {
			verdict, ok = "  EXCEEDED", false
		}
		fmt.Fprintf(w, "  %-16s %-5s %14.6f %14.6f %+9.6f %7.3f%s\n", "failed_ratio", "ratio", fa, fb, fb-fa, failedRatioBound, verdict)
	}
	if compared == 0 {
		return false, fmt.Errorf("no untraced runs of any workload in %s and %s", pathA, pathB)
	}
	return ok, nil
}

// loadRuns returns a file's untraced results by workload.
func loadRuns(path string) (map[string][]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string][]result{}
	for _, r := range f.Results {
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// medianOf returns the median of the named end-to-end metric over rs
// and how many of rs carry it.
func medianOf(rs []result, name string) (float64, int) {
	var vs []float64
	for _, r := range rs {
		for _, m := range r.EndToEnd {
			if m.Name == name {
				vs = append(vs, m.Value)
			}
		}
	}
	return median(vs), len(vs)
}

func medianFailed(rs []result) float64 {
	var vs []float64
	for _, r := range rs {
		vs = append(vs, r.FailedRatio)
	}
	return median(vs)
}

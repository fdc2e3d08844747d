// Package stats provides the small statistics toolkit used by the
// evaluation harness: empirical CDFs, percentiles, Pearson correlation
// and text renderers for the tables and figure series of §5–§6.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is a mutable collection of float64 observations.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample.
func NewSample() *Sample { return &Sample{} }

// FromDurations builds a sample of seconds from durations.
func FromDurations(ds []time.Duration) *Sample {
	s := NewSample()
	for _, d := range ds {
		s.Add(d.Seconds())
	}
	return s
}

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// AddDuration appends a duration observation in seconds.
func (s *Sample) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (0 <= p <= 100) using linear
// interpolation between closest ranks. It returns NaN for empty samples.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 100 {
		return s.xs[len(s.xs)-1]
	}
	rank := p / 100 * float64(len(s.xs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.xs[lo]
	}
	frac := rank - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Median returns the 50th percentile.
func (s *Sample) Median() float64 { return s.Percentile(50) }

// Mean returns the arithmetic mean, or NaN for empty samples.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Min returns the smallest observation.
func (s *Sample) Min() float64 { return s.Percentile(0) }

// Max returns the largest observation.
func (s *Sample) Max() float64 { return s.Percentile(100) }

// FractionBelow returns the empirical CDF at x: the fraction of
// observations <= x.
func (s *Sample) FractionBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.ensureSorted()
	i := sort.SearchFloat64s(s.xs, x)
	for i < len(s.xs) && s.xs[i] <= x {
		i++
	}
	return float64(i) / float64(len(s.xs))
}

// CDFPoint is one (x, cumulative fraction) point of an empirical CDF.
type CDFPoint struct {
	X float64
	F float64
}

// CDF returns up to points evenly-spaced points of the empirical CDF,
// suitable for plotting the figure series.
func (s *Sample) CDF(points int) []CDFPoint {
	if len(s.xs) == 0 || points <= 0 {
		return nil
	}
	s.ensureSorted()
	if points > len(s.xs) {
		points = len(s.xs)
	}
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		idx := (i + 1) * len(s.xs) / points
		if idx > len(s.xs) {
			idx = len(s.xs)
		}
		out = append(out, CDFPoint{X: s.xs[idx-1], F: float64(idx) / float64(len(s.xs))})
	}
	return out
}

// Values returns a copy of the observations in sorted order.
func (s *Sample) Values() []float64 {
	s.ensureSorted()
	return append([]float64(nil), s.xs...)
}

// Pearson returns the Pearson correlation coefficient of paired samples,
// used by §6.3 to show object size and latency are uncorrelated. It
// returns NaN when the inputs differ in length, are shorter than 2, or
// have zero variance.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) || len(xs) < 2 {
		return math.NaN()
	}
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Table is a simple fixed-column text table renderer for harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = fmt.Sprintf("%.2fs", v.Seconds())
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatCDF renders a CDF series as "x f" lines for the figure outputs.
func FormatCDF(name string, pts []CDFPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", name)
	for _, p := range pts {
		fmt.Fprintf(&b, "%.4f %.4f\n", p.X, p.F)
	}
	return b.String()
}

// Bin is one non-empty fixed-width bin: Index is floor(key/width) and
// Items are the inputs that landed in it, in input order.
type Bin[T any] struct {
	Index int
	Items []T
}

// Bins groups xs into fixed-width bins by key and returns the
// non-empty bins in ascending index order — the per-bin series of
// Figures 4b and 11b.
func Bins[T any](xs []T, width float64, key func(T) float64) []Bin[T] {
	byIndex := make(map[int][]T)
	for _, x := range xs {
		i := int(math.Floor(key(x) / width))
		byIndex[i] = append(byIndex[i], x)
	}
	out := make([]Bin[T], 0, len(byIndex))
	for i, items := range byIndex {
		out = append(out, Bin[T]{Index: i, Items: items})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

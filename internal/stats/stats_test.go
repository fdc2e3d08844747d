package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleOf(xs ...float64) *Sample {
	s := NewSample()
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestPercentiles(t *testing.T) {
	s := sampleOf(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	if got := s.Median(); math.Abs(got-5.5) > 1e-9 {
		t.Errorf("Median = %v, want 5.5", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Errorf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 10 {
		t.Errorf("P100 = %v", got)
	}
	if got := s.Percentile(90); math.Abs(got-9.1) > 1e-9 {
		t.Errorf("P90 = %v, want 9.1", got)
	}
}

func TestPercentileEmpty(t *testing.T) {
	if !math.IsNaN(NewSample().Percentile(50)) {
		t.Error("empty sample percentile should be NaN")
	}
	if !math.IsNaN(NewSample().Mean()) {
		t.Error("empty sample mean should be NaN")
	}
}

func TestMeanMinMax(t *testing.T) {
	s := sampleOf(2, 4, 9)
	if s.Mean() != 5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
}

func TestFractionBelow(t *testing.T) {
	s := sampleOf(1, 2, 2, 3)
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {3, 1}, {99, 1},
	}
	for _, c := range cases {
		if got := s.FractionBelow(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("FractionBelow(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestCDFMonotone(t *testing.T) {
	s := sampleOf(5, 1, 4, 2, 3, 9, 7, 8, 6, 10)
	pts := s.CDF(5)
	if len(pts) != 5 {
		t.Fatalf("CDF points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].F < pts[i-1].F {
			t.Errorf("CDF not monotone at %d: %+v", i, pts)
		}
	}
	if pts[len(pts)-1].F != 1 {
		t.Errorf("CDF should end at 1, got %v", pts[len(pts)-1].F)
	}
}

func TestFromDurations(t *testing.T) {
	s := FromDurations([]time.Duration{time.Second, 3 * time.Second})
	if s.Mean() != 2 {
		t.Errorf("Mean = %v, want 2 seconds", s.Mean())
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, neg); math.Abs(got+1) > 1e-9 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if !math.IsNaN(Pearson(xs, ys[:3])) {
		t.Error("length mismatch should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{2, 3})) {
		t.Error("zero variance should be NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable("Region", "P50", "P90")
	tab.AddRow("eu_central_1", 1.81, 2.28)
	tab.AddRow("af_south_1", 3.75, 4.88)
	out := tab.String()
	if !strings.Contains(out, "eu_central_1") || !strings.Contains(out, "3.75") {
		t.Errorf("table output:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Errorf("table should have 4 lines, got %d:\n%s", lines, out)
	}
}

func TestFormatCDF(t *testing.T) {
	out := FormatCDF("fig9a", []CDFPoint{{1, 0.5}, {2, 1}})
	if !strings.HasPrefix(out, "# fig9a\n") || !strings.Contains(out, "2.0000 1.0000") {
		t.Errorf("FormatCDF:\n%s", out)
	}
}

func TestHistogram(t *testing.T) {
	// 5 is observed with weight 2, so it is two items.
	bins := Bins([]float64{1, 4.9, 5, 5, 12}, 5, func(x float64) float64 { return x })
	if len(bins) != 3 {
		t.Fatalf("bins = %v", bins)
	}
	if len(bins[0].Items) != 2 || len(bins[1].Items) != 2 || len(bins[2].Items) != 1 {
		t.Errorf("counts = %v", bins)
	}
	if !sort.SliceIsSorted(bins, func(a, b int) bool { return bins[a].Index < bins[b].Index }) {
		t.Error("Bins must be sorted")
	}
}

func TestQuickPercentileWithinRange(t *testing.T) {
	f := func(xs []float64, p uint8) bool {
		if len(xs) == 0 {
			return true
		}
		s := NewSample()
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			s.Add(x)
		}
		got := s.Percentile(float64(p % 101))
		return got >= s.Min() && got <= s.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFractionBelowMonotone(t *testing.T) {
	f := func(xs []float64, a, b float64) bool {
		if len(xs) == 0 || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		s := NewSample()
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
			s.Add(x)
		}
		if a > b {
			a, b = b, a
		}
		return s.FractionBelow(a) <= s.FractionBelow(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

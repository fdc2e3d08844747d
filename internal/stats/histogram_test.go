package stats

import "testing"

func TestHistogramObserveAndBins(t *testing.T) {
	// 0.4 is observed with weight 2, so it is two items.
	xs := []float64{0.1, 0.4, 0.4, 1.2, -0.3} // negative values land in bin -1
	bins := Bins(xs, 0.5, func(x float64) float64 { return x })

	if len(bins) != 3 || bins[0].Index != -1 || bins[1].Index != 0 || bins[2].Index != 2 {
		t.Errorf("Bins = %v, want indices [-1 0 2]", bins)
	}
	if len(bins) > 1 && len(bins[1].Items) != 3 {
		t.Errorf("bin 0 items = %v, want 3", bins[1].Items)
	}
}

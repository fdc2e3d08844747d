package stats

import "testing"

func TestHistogramObserveAndBins(t *testing.T) {
	h := NewHistogram(0.5)
	h.Observe(0.1, 1)
	h.Observe(0.4, 2)
	h.Observe(1.2, 1)
	h.Observe(-0.3, 1) // negative values land in bin -1

	if got := h.Bins(); len(got) != 3 || got[0] != -1 || got[1] != 0 || got[2] != 2 {
		t.Errorf("Bins = %v, want [-1 0 2]", got)
	}
	if h.Counts[0] != 3 {
		t.Errorf("bin 0 weight = %v, want 3", h.Counts[0])
	}
}

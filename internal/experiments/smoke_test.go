package experiments

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestSmokePerformance is a development smoke test printing the main
// perf tables; kept small so the suite stays fast.
func TestSmokePerformance(t *testing.T) {
	if os.Getenv("SMOKE") == "" {
		t.Skip("set SMOKE=1 to run the perf smoke hook")
	}
	start := time.Now()
	res := RunPerformance(PerfConfig{NetworkSize: 400, IterationsPer: 3})
	fmt.Println(res.Table1())
	fmt.Println(res.Table4())
	fmt.Println(res.Summary())
	fmt.Println("wall time:", time.Since(start))
}

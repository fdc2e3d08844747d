package transport

import (
	"context"
	"sync"
	"testing"

	"repro/internal/wire"
)

// TestMeterCountsConcurrentLaunches counts launches from many
// goroutines at once, as a walk, a want-wave and a store batch do under
// one retrieval, and checks that a context without a meter counts
// nothing and that the innermost meter is the one counted into.
func TestMeterCountsConcurrentLaunches(t *testing.T) {
	ctx, m := WithMeter(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				MeterOf(ctx).Add(wire.TGetProviders, 1)
				MeterOf(ctx).Add(wire.TWantHave, 2)
			}
		}()
	}
	wg.Wait()
	if got := m.Count(wire.TGetProviders); got != 800 {
		t.Errorf("GET_PROVIDERS = %d, want 800", got)
	}
	if got := m.Count(wire.TGetProviders, wire.TWantHave); got != 2400 {
		t.Errorf("GET_PROVIDERS + WANT_HAVE = %d, want 2400", got)
	}
	if got := m.Count(wire.TWantBlock); got != 0 {
		t.Errorf("WANT_BLOCK = %d, want 0", got)
	}

	MeterOf(context.Background()).Add(wire.TFindNode, 1) // no meter: a no-op
	inner, im := WithMeter(ctx)
	MeterOf(inner).Add(wire.TFindNode, 3)
	if im.Count(wire.TFindNode) != 3 || m.Count(wire.TFindNode) != 0 {
		t.Errorf("FIND_NODE inner, outer = %d, %d, want 3, 0", im.Count(wire.TFindNode), m.Count(wire.TFindNode))
	}
}

package experiments

import (
	"context"
	"fmt"

	"repro/internal/testnet"
)

// simulate runs body as the root goroutine of tn's scheduler — the
// shape every experiment has, so every latency it reports is virtual
// time and a pure function of the seed. A stall means some wait in the
// run is not on the testnet's source, which forfeits that: it is a bug
// in the tree, not an outcome of the experiment, so it panics.
func simulate(tn *testnet.Testnet, body func(ctx context.Context)) {
	if err := tn.Sched.Run(context.Background(), body); err != nil {
		panic(err)
	}
	if n := tn.Sched.Stalls(); n != 0 {
		panic(fmt.Sprintf("experiments: scheduler stalled %d times: a wait in the run is not on the testnet's source; parked at the first stall:\n%s", n, tn.Sched.StallReport()))
	}
}

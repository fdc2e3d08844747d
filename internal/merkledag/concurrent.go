package merkledag

import (
	"context"
	"slices"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/simtime"
)

// AssembleConcurrent reassembles the DAG rooted at root like Assemble,
// but fetches sibling subtrees with up to workers concurrent fetches —
// how Bitswap sessions overlap block requests in practice. Output
// ordering is preserved; every block is checked against the CID that
// named it, and the result is the caller's own allocation.
func AssembleConcurrent(f Fetcher, root cid.Cid, workers int) ([]byte, error) {
	return AssembleConcurrentOn(context.Background(), nil, f, root, workers)
}

// ContextFetcher is a Fetcher whose fetches wait on the network.
// AssembleConcurrentOn hands GetContext the context of the worker
// goroutine the fetch runs on — under a scheduler that context carries
// the worker's own lease, and a wait must park the lease of the
// goroutine that is waiting.
type ContextFetcher interface {
	Fetcher
	GetContext(ctx context.Context, c cid.Cid) (block.Block, error)
}

// AssembleConcurrentOn is AssembleConcurrent running its fetches on the
// given time source: workers spawn through src.Go and both the
// worker-slot waits and the sibling joins are instrumented, so a
// discrete-event scheduler can advance virtual time while fetches park
// inside simulated RPCs. ctx must be the caller's (it carries the
// scheduler lease in simulated runs); a nil src is the wall clock,
// i.e. plain goroutines.
func AssembleConcurrentOn(ctx context.Context, src simtime.Source, f Fetcher, root cid.Cid, workers int) ([]byte, error) {
	if workers <= 1 {
		return Assemble(f, root)
	}
	src = simtime.OrWall(src)
	cf, waits := f.(ContextFetcher)
	// The semaphore bounds concurrent fetches (a Get and the decode of
	// what it returned) only; it is never held across the recursive
	// descent, so ancestors waiting on descendants cannot starve them of
	// slots. Slots are prefilled tokens: acquiring is a receive
	// (instrumented under the scheduler) and releasing a deposit into
	// the freed capacity, which never blocks.
	sem := make(chan struct{}, workers)
	for i := 0; i < workers; i++ {
		sem <- struct{}{}
	}
	// fetch returns the leaves under c in order, as the slices the
	// fetched blocks own; only the final concatenation copies payload.
	var fetch func(ctx context.Context, c cid.Cid) ([][]byte, error)
	fetch = func(ctx context.Context, c cid.Cid) ([][]byte, error) {
		if _, ok := simtime.Recv(ctx, src, sem); !ok {
			return nil, ctx.Err()
		}
		var n *Node
		var err error
		if waits {
			blk, gerr := cf.GetContext(ctx, c)
			n, err = decodeFetched(c, blk, gerr)
		} else {
			n, err = fetchNode(f, c)
		}
		sem <- struct{}{}
		if err != nil {
			return nil, err
		}
		if len(n.Links) == 0 {
			return [][]byte{n.Data}, nil
		}
		parts := make([][][]byte, len(n.Links))
		errs := make([]error, len(n.Links))
		g := simtime.NewGroup(src)
		for i, l := range n.Links {
			i, l := i, l
			g.Go(ctx, func(gctx context.Context) {
				parts[i], errs[i] = fetch(gctx, l.Cid)
			})
		}
		g.Wait(ctx)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return slices.Concat(parts...), nil
	}
	leaves, err := fetch(ctx, root)
	if err != nil {
		return nil, err
	}
	return concat(leaves), nil
}

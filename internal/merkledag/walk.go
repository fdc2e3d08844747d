package merkledag

import (
	"bytes"
	"context"

	"repro/internal/block"
	"repro/internal/cid"
	"repro/internal/simtime"
)

// ContextFetcher is a Fetcher whose fetches wait on the network. A walk
// with more than one worker hands GetContext its worker's context, which
// under a scheduler carries that worker's own lease.
type ContextFetcher interface {
	Fetcher
	GetContext(ctx context.Context, c cid.Cid) (block.Block, error)
}

// Assemble reassembles the DAG rooted at root with one fetch at a time
// on the caller's goroutine, through f.Get (see AssembleConcurrentOn).
func Assemble(f Fetcher, root cid.Cid) ([]byte, error) {
	return AssembleConcurrentOn(context.Background(), nil, f, root, 1)
}

// AssembleConcurrentOn reassembles the DAG rooted at root, fetching up
// to workers blocks at a time as Bitswap sessions do, on src (nil: the
// wall clock) under the caller's ctx. The result is one allocation of
// exactly the content's size and the caller's own: it never aliases a
// block's bytes, which stores and other nodes share.
func AssembleConcurrentOn(ctx context.Context, src simtime.Source, f Fetcher, root cid.Cid, workers int) ([]byte, error) {
	var leaves [][]byte
	err := walk(ctx, src, f, root, workers, func(_ cid.Cid, n *Node) {
		if len(n.Links) == 0 {
			leaves = append(leaves, n.Data)
		}
	})
	if err != nil {
		return nil, err
	}
	// The one payload copy, sized from the leaves held, not from remote
	// link Sizes; bytes.Join, unlike slices.Concat, does not zero it.
	return bytes.Join(leaves, nil), nil
}

// AllCids returns every CID in the DAG rooted at root, root first.
func AllCids(f Fetcher, root cid.Cid) ([]cid.Cid, error) {
	var out []cid.Cid
	err := walk(context.Background(), nil, f, root, 1, func(c cid.Cid, _ *Node) {
		out = append(out, c)
	})
	return out, err
}

// walk visits the DAG rooted at root in depth-first pre-order, calling
// visit on the caller's goroutine. At an interior node it fetches all
// the children, at most workers at a time, then visits them in link
// order. One worker fetches with f.Get on the caller's goroutine: a
// Bitswap session's Get waits under the session's own context. More
// spawn one simtime.Group per interior node, in link order, joined
// before the descent; a worker holds a slot only across its fetch.
func walk(ctx context.Context, src simtime.Source, f Fetcher, root cid.Cid, workers int, visit func(cid.Cid, *Node)) error {
	fetch := func(_ context.Context, c cid.Cid) (*Node, error) { return Fetch(f, c) }
	if workers > 1 {
		src = simtime.OrWall(src)
		// Prefilled tokens: acquiring is an instrumented receive,
		// releasing a deposit that never blocks.
		sem := make(chan struct{}, workers)
		for range workers {
			sem <- struct{}{}
		}
		cf, waits := f.(ContextFetcher)
		fetch = func(ctx context.Context, c cid.Cid) (*Node, error) {
			if _, ok := simtime.Recv(ctx, src, sem); !ok {
				return nil, ctx.Err()
			}
			defer func() { sem <- struct{}{} }()
			if !waits {
				return Fetch(f, c)
			}
			blk, err := cf.GetContext(ctx, c)
			return decodeFetched(c, blk, err)
		}
	}
	var descend func(c cid.Cid, n *Node) error
	descend = func(c cid.Cid, n *Node) error {
		visit(c, n)
		if len(n.Links) == 0 {
			return nil
		}
		kids := make([]*Node, len(n.Links))
		errs := make([]error, len(n.Links))
		if workers > 1 {
			g := simtime.NewGroup(src)
			for i, l := range n.Links {
				g.Go(ctx, func(gctx context.Context) { kids[i], errs[i] = fetch(gctx, l.Cid) })
			}
			g.Wait(ctx)
		} else {
			for i, l := range n.Links {
				if kids[i], errs[i] = fetch(ctx, l.Cid); errs[i] != nil {
					break
				}
			}
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		for i, l := range n.Links {
			if err := descend(l.Cid, kids[i]); err != nil {
				return err
			}
		}
		return nil
	}
	n, err := fetch(ctx, root)
	if err != nil {
		return err
	}
	return descend(root, n)
}

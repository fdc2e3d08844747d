package merkledag

import (
	"bytes"
	"context"
	"fmt"
	"sync"

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

// Visitor is handed each verified node of a DAG, one call at a time, in
// depth-first pre-order; the leaves' Data in that order is the content.
// Its error ends the walk. The Node aliases a shared block: never write
// it.
type Visitor func(c cid.Cid, n *Node) error

// AppendLeaves returns a Visitor appending each leaf's Data to *leaves.
func AppendLeaves(leaves *[][]byte) Visitor {
	return func(_ cid.Cid, n *Node) error {
		if len(n.Links) == 0 {
			*leaves = append(*leaves, n.Data)
		}
		return nil
	}
}

// Leaves is AppendLeaves over a walk with one worker.
func Leaves(f Fetcher, root cid.Cid) ([][]byte, error) {
	var leaves [][]byte
	err := Walk(context.Background(), nil, f, root, 1, AppendLeaves(&leaves))
	return leaves, err
}

// Assemble reassembles the DAG rooted at root with one fetch at a time
// on the caller's goroutine, through f.Get. The result is the caller's
// own: one allocation of the verified leaves' size.
func Assemble(f Fetcher, root cid.Cid) ([]byte, error) {
	leaves, err := Leaves(f, root)
	if err != nil {
		return nil, err
	}
	// bytes.Join, unlike slices.Concat, does not zero the copy.
	return bytes.Join(leaves, nil), nil
}

// AllCids returns every CID in the DAG rooted at root, root first.
func AllCids(f Fetcher, root cid.Cid) ([]cid.Cid, error) {
	var out []cid.Cid
	err := Walk(context.Background(), nil, f, root, 1, func(c cid.Cid, _ *Node) error {
		out = append(out, c)
		return nil
	})
	return out, err
}

// Walk visits the DAG rooted at root in depth-first pre-order. At an
// interior node it fetches all the children, at most workers at a time,
// then descends into them in link order; a leaf child is visited as
// soon as it and the siblings before it have verified, on a worker's
// goroutine. A child whose ContentSize is not its link's Size is refused
// before it is visited: by induction a walk that succeeds visits leaves
// summing to the root's ContentSize, and one that fails no more. One
// worker fetches with f.Get on the caller's goroutine: a Bitswap
// session's Get waits under the session's own context. More spawn one
// simtime.Group per interior node, in link order, joined before the
// descent; a worker holds a slot only across its fetch.
func Walk(ctx context.Context, src simtime.Source, f Fetcher, root cid.Cid, workers int, visit Visitor) error {
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
		if err := visit(c, n); err != nil || len(n.Links) == 0 {
			return err
		}
		// Guarded by mu: the children fetched, the first failure by link
		// index, a fetch's or a visit's, the leaf children already
		// visited, kids[:next], and whether a goroutine is visiting. The
		// visit itself runs unlocked; the one goroutine visiting takes
		// over the leaves that arrive meanwhile.
		kids := make([]*Node, len(n.Links))
		var mu sync.Mutex
		next, failAt, visiting := 0, len(kids), false
		var failed error
		get := func(ctx context.Context, i int) error {
			kid, err := fetch(ctx, n.Links[i].Cid)
			if l := n.Links[i]; err == nil && kid.ContentSize() != l.Size {
				err = fmt.Errorf("%w: %s declares %d bytes, its parent's link %d", ErrInvalid, l.Cid, kid.ContentSize(), l.Size)
			}
			mu.Lock()
			defer mu.Unlock()
			if kids[i] = kid; err != nil && i < failAt {
				failAt, failed = i, err
			}
			for !visiting && next < failAt && kids[next] != nil && len(kids[next].Links) == 0 {
				j := next
				visiting = true
				mu.Unlock()
				err := visit(n.Links[j].Cid, kids[j])
				mu.Lock()
				if visiting, next = false, j+1; err != nil && j < failAt {
					failAt, failed = j, err
				}
			}
			return failed
		}
		if workers > 1 {
			g := simtime.NewGroup(src)
			for i := range n.Links {
				g.Go(ctx, func(gctx context.Context) { get(gctx, i) })
			}
			g.Wait(ctx)
		} else {
			for i := range n.Links {
				if get(ctx, i) != nil {
					break
				}
			}
		}
		if failed != nil {
			return failed
		}
		for i := next; i < len(kids); i++ {
			if err := descend(n.Links[i].Cid, kids[i]); err != nil {
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

package ipfs_test

import (
	"context"
	"fmt"

	"repro/ipfs"
)

// ExampleNewSimNetwork demonstrates the simulated-network quickstart:
// publish from one peer, retrieve from another.
func ExampleNewSimNetwork() {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 60, Clean: true, Seed: 1})
	alice, bob := net.Node(0), net.Node(30)

	// Everything that takes simulated time runs on the network's
	// virtual clock, inside Run.
	net.Run(func(ctx context.Context) {
		pub, err := alice.AddAndPublish(ctx, []byte("hello decentralized web"))
		if err != nil {
			panic(err)
		}
		if err := alice.PublishPeerRecord(ctx); err != nil {
			panic(err)
		}
		data, _, err := bob.Retrieve(ctx, pub.Cid)
		if err != nil {
			panic(err)
		}
		fmt.Println(string(data))
	})
	// Output: hello decentralized web
}

// ExampleSumCid shows content addressing: the CID is derived from the
// bytes, so identical content always maps to the same identifier.
func ExampleSumCid() {
	a := ipfs.SumCid([]byte("same bytes"))
	b := ipfs.SumCid([]byte("same bytes"))
	c := ipfs.SumCid([]byte("other bytes"))
	fmt.Println(a.Equal(b), a.Equal(c))
	// Output: true false
}

// ExampleNode_AddTree publishes a small website as a UnixFS directory
// and resolves a file beneath the root CID.
func ExampleNode_AddTree() {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 20, Clean: true, Seed: 2})
	node := net.Node(0)
	root, err := node.AddTree(map[string][]byte{
		"index.html":   []byte("<h1>home</h1>"),
		"css/site.css": []byte("body{}"),
	})
	if err != nil {
		panic(err)
	}
	page, err := node.CatPath(root, "index.html")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(page))
	// Output: <h1>home</h1>
}

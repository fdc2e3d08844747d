// Quickstart: spin up a simulated IPFS network, publish a file from
// one peer and retrieve it from another, printing the per-phase
// breakdown the paper measures (Figure 3 / Figure 9).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"repro/ipfs"
)

func main() {
	// A 100-peer simulated network without pathological peers. It lives
	// on virtual time: everything that waits happens inside Run, and the
	// seconds printed below are simulated ones.
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 100, Clean: true})
	alice := net.Node(0)
	bob := net.Node(55)
	net.Run(func(ctx context.Context) { publishAndRetrieve(ctx, alice, bob) })
}

func publishAndRetrieve(ctx context.Context, alice, bob *ipfs.Node) {
	content := bytes.Repeat([]byte("Hello, Decentralized Web! "), 40_000) // ~1 MB

	// Step 1 (Fig 3): import locally — chunk, build the Merkle DAG,
	// derive the root CID.
	root, err := alice.Add(content)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== CID anatomy (Figure 1) ==")
	fmt.Print(root.Explain())

	// Steps 2–3: walk the DHT for the 20 closest peers and store
	// provider records with them.
	pub, err := alice.Publish(ctx, root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== publication (§3.1) ==")
	fmt.Printf("DHT walk:   %.2fs (found the %d closest peers)\n", pub.WalkDuration.Seconds(), pub.StoreAttempts)
	fmt.Printf("RPC batch:  %.2fs (%d/%d provider records stored)\n", pub.BatchDuration.Seconds(), pub.StoreOK, pub.StoreAttempts)
	fmt.Printf("total:      %.2fs (simulated)\n", pub.TotalDuration.Seconds())

	// Alice also publishes her peer record so others can map her
	// PeerID to an address.
	if err := alice.PublishPeerRecord(ctx); err != nil {
		log.Fatal(err)
	}

	// Steps 4–6: Bob retrieves — opportunistic Bitswap, DHT walks,
	// connect, fetch, verify.
	data, res, err := bob.Retrieve(ctx, root)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== retrieval (§3.2) ==")
	fmt.Printf("bitswap phase:  %.2fs (hit=%v)\n", res.BitswapPhase.Seconds(), res.BitswapHit)
	fmt.Printf("provider walk:  %.2fs\n", res.ProviderWalk.Seconds())
	fmt.Printf("peer walk:      %.2fs (address book used: %v)\n", res.PeerWalk.Seconds(), res.UsedBook)
	fmt.Printf("connect:        %.2fs\n", res.Dial.Seconds())
	fmt.Printf("fetch:          %.2fs (%d bytes from %s)\n", res.Fetch.Seconds(), res.Bytes, res.Provider.Short())
	fmt.Printf("total:          %.2fs — stretch vs HTTPS: %.1fx (Eq 2)\n", res.Total.Seconds(), res.Stretch())

	if !bytes.Equal(data, content) {
		log.Fatal("content mismatch!")
	}
	fmt.Println("\ncontent verified: CID self-certification held end to end")
}

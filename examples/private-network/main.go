// Private network: a five-node IPFS network over real TCP sockets on
// localhost — the §2 protocol stack (identify handshake with PeerID
// verification, DHT bootstrap, provider records, Bitswap) end to end,
// plus IPNS mutable naming (§3.3).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/kbucket"
	"repro/ipfs"
)

func main() {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Start five nodes on ephemeral localhost ports.
	nodes := make([]*ipfs.Node, 5)
	for i := range nodes {
		n, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: int64(i + 1), Region: "US"})
		if err != nil {
			log.Fatal(err)
		}
		defer n.Close()
		nodes[i] = n
		fmt.Printf("node %d: %s %s\n", i, n.ID().Short(), n.Addrs()[0])
	}

	// Everyone bootstraps off node 0 (the §2.2 join procedure).
	boot := []ipfs.PeerInfo{nodes[0].Info()}
	for _, n := range nodes[1:] {
		if err := n.Bootstrap(ctx, boot); err != nil {
			log.Fatalf("bootstrap: %v", err)
		}
	}
	for _, n := range nodes[1:] {
		nodes[0].DHT().Seed(n.Info(), kbucket.KeyForPeer(n.ID()))
	}

	// Node 1 publishes a document and its peer record.
	doc := bytes.Repeat([]byte("private swarm document v1\n"), 2000)
	pub, err := nodes[1].AddAndPublish(ctx, doc)
	if err != nil {
		log.Fatal(err)
	}
	if err := nodes[1].PublishPeerRecord(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnode 1 published %s (%d records stored)\n", pub.Cid, pub.StoreOK)

	// Node 4 retrieves it over real TCP.
	data, res, err := nodes[4].Retrieve(ctx, pub.Cid)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 4 retrieved %d bytes from %s in %v\n", len(data), res.Provider.Short(), res.Total.Round(time.Millisecond))

	// IPNS: node 1 points its mutable name at the document, then
	// updates it; node 3 resolves both versions (§3.3).
	if err := nodes[1].PublishIPNS(ctx, pub.Cid); err != nil {
		log.Fatal(err)
	}
	got, err := nodes[3].ResolveIPNS(ctx, nodes[1].ID())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nIPNS /ipns/%s -> %s\n", nodes[1].ID().Short(), got)

	v2, err := nodes[1].Add(bytes.Repeat([]byte("private swarm document v2\n"), 2000))
	if err != nil {
		log.Fatal(err)
	}
	if err := nodes[1].PublishIPNS(ctx, v2); err != nil {
		log.Fatal(err)
	}
	got2, err := nodes[3].ResolveIPNS(ctx, nodes[1].ID())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after update      -> %s\n", got2)
	if got2.Equal(got) {
		fmt.Println("(resolver saw the previous version; records propagate on the republish cycle)")
	} else {
		fmt.Println("mutable name updated while the immutable CIDs stayed verifiable")
	}
}

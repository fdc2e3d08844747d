// NFT gateway: the §3.4 / §6.3 scenario that motivates the paper's
// gateway design. NFT images are pinned into a gateway's node store
// (as the Web3/NFT Storage initiatives do), a video file lives only on
// a remote peer, and a browser-style client fetches both through
// GET /ipfs/{CID} — showing the three serving tiers of Table 5.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/ipfs"
)

func main() {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 80, Clean: true})
	net.Run(func(ctx context.Context) { serve(ctx, net) })
}

func serve(ctx context.Context, net *ipfs.SimNetwork) {
	// The gateway runs in the US, like the sampled ipfs.io instance.
	gw := net.NewGateway("US", 64<<20, 99)

	// Pin three NFT images into the gateway's node store.
	rng := rand.New(rand.NewSource(7))
	var nfts []ipfs.Cid
	for i := 0; i < 3; i++ {
		img := make([]byte, 300_000+rng.Intn(400_000))
		rng.Read(img)
		c, err := gw.Pin(img)
		if err != nil {
			log.Fatal(err)
		}
		nfts = append(nfts, c)
		fmt.Printf("pinned NFT #%d -> /ipfs/%s (%d bytes)\n", i+1, c, len(img))
	}

	// A creator elsewhere publishes a video through the regular DHT.
	creator := net.Node(42)
	video := bytes.Repeat([]byte{0xA7}, 900_000)
	pub, err := creator.AddAndPublish(ctx, video)
	if err != nil {
		log.Fatal(err)
	}
	if err := creator.PublishPeerRecord(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("creator published video -> /ipfs/%s\n\n", pub.Cid)

	// Browser clients hit the gateway.
	fetch := func(label string, c ipfs.Cid) {
		resp, _ := gw.Fetch(ctx, ipfs.GatewayRequest{Cid: c, Time: time.Now(), Country: "US", UserID: "browser-1"})
		if resp.Err != nil {
			log.Fatalf("%s: %v", label, resp.Err)
		}
		fmt.Printf("%-28s tier=%-15s latency=%8.3fs bytes=%d\n",
			label, resp.Tier, resp.Latency.Seconds(), resp.Bytes)
	}

	fetch("NFT #1 (first request)", nfts[0])  // node store, ~8ms
	fetch("NFT #1 (second request)", nfts[0]) // nginx cache, 0s
	fetch("NFT #2", nfts[1])
	fetch("video (remote, cold)", pub.Cid) // full P2P retrieval, seconds
	fetch("video (now cached)", pub.Cid)   // nginx cache

	// Summarize like Table 5.
	fmt.Println("\n== access-log summary (Table 5 shape) ==")
	stats := ipfs.SummarizeGatewayLog(gw.Log())
	for _, tier := range []string{"nginx cache", "IPFS node store", "Non Cached"} {
		if s, ok := stats[tier]; ok {
			fmt.Printf("%-16s requests=%d median=%0.3fs\n", tier, s.Requests, s.MedianLatency.Seconds())
		}
	}
}

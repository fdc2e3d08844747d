// Measurement: run the paper's §4.1 crawler methodology against a
// churning simulated network — repeated k-bucket crawls classifying
// peers as dialable or undialable (the Figure 4a series), plus the
// AutoNAT client/server decision for a NAT'd joiner (§2.3).
package main

import (
	"context"
	"fmt"
	"log"

	"repro/ipfs"
)

func main() {
	net := ipfs.NewSimNetwork(ipfs.SimConfig{Peers: 300, Clean: true})
	net.Run(func(ctx context.Context) { measure(ctx, net) })
}

func measure(ctx context.Context, net *ipfs.SimNetwork) {
	cr := net.NewCrawler(1234)
	boot := net.Bootstrap(4)

	fmt.Println("== crawl epoch 1: everyone online ==")
	r1 := cr.Crawl(ctx, boot)
	fmt.Printf("discovered=%d dialable=%d undialable=%d (%.1fs simulated)\n",
		len(r1.Observations), r1.Dialable(), r1.Undialable(), r1.Duration.Seconds())

	// A third of the network churns out; their routing-table entries
	// linger, exactly the stale entries Fig 4a counts as undialable.
	tn := net.Testnet()
	for i := 100; i < 200; i++ {
		tn.Net.SetOnline(tn.Nodes[i].ID(), false)
	}
	fmt.Println("\n== crawl epoch 2: 100 peers departed ==")
	r2 := cr.Crawl(ctx, boot)
	fmt.Printf("discovered=%d dialable=%d undialable=%d\n",
		len(r2.Observations), r2.Dialable(), r2.Undialable())
	fmt.Printf("undialable fraction: %.1f%% (the paper finds 45.5%% of IPs never reachable)\n",
		100*float64(r2.Undialable())/float64(len(r2.Observations)))

	// AutoNAT: a new NAT'd peer joins, asks its neighbours to dial
	// back, and stays a DHT client (§2.3).
	fmt.Println("\n== AutoNAT (§2.3) ==")
	joiner := net.AddNode("DE", 555)
	mode := joiner.CheckNATAndSetMode(ctx)
	fmt.Printf("publicly reachable joiner decided: mode=%v (0=server, 1=client)\n", mode)
	if len(r2.Observations) == 0 {
		log.Fatal("crawl found nothing")
	}
}

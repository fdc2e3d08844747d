// Command ipfs-gateway runs an HTTP gateway (§3.4) in front of a TCP
// node: GET /ipfs/{CID} serves content from the nginx-style cache, the
// local pinned store, or the P2P network.
//
// With -fleet N (N > 1) it instead serves through a gateway fleet:
// N local nodes behind one HTTP listener, requests placed on a
// consistent-hash ring by CID, a fleet-shared object cache between the
// per-instance caches and the P2P origin, and per-instance admission
// control that sheds overload with 503 + Retry-After.
//
// Usage:
//
//	ipfs-gateway -http 127.0.0.1:8080 \
//	    -bootstrap /ip4/127.0.0.1/tcp/4001/p2p/<peerID> \
//	    -pin ./website.html
//	ipfs-gateway -fleet 4 -fleet-shared-mb 512 -fleet-max-inflight 64
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

import (
	"repro/internal/gwfleet"
	"repro/internal/telemetry"
	"repro/ipfs"
)

// readHeaderTimeout bounds how long a client may take to send its
// request line and headers.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		httpAddr  = flag.String("http", "127.0.0.1:8080", "HTTP listen address")
		listen    = flag.String("listen", "127.0.0.1:0", "P2P TCP listen address")
		seed      = flag.Int64("seed", 0, "identity seed (0 = random)")
		bootstrap = flag.String("bootstrap", "", "comma-separated bootstrap multiaddrs")
		cacheMB   = flag.Int64("cache-mb", 256, "nginx-style LRU cache size in MiB (per instance in fleet mode)")
		pins      = flag.String("pin", "", "comma-separated files to pin into the node store")
		storeKind = flag.String("blockstore", "mem", "blockstore backend: mem | pack")
		storeDir  = flag.String("blockstore-dir", "", "directory for the pack blockstore")

		fleetN      = flag.Int("fleet", 1, "gateway fleet size; >1 serves through consistent-hash placement, a shared cache tier and load shedding")
		sharedMB    = flag.Int64("fleet-shared-mb", 256, "fleet-shared object cache size in MiB")
		maxInflight = flag.Int("fleet-max-inflight", 32, "per-instance inflight bound before requests queue")
		queueHigh   = flag.Int("fleet-queue-high", 16, "queue depth at which an instance latches into shedding (503 + Retry-After)")
		queueLow    = flag.Int("fleet-queue-low", 4, "queue depth at which a shedding instance resumes admission")
		negTTL      = flag.Duration("fleet-negative-ttl", time.Minute, "how long a known-missing CID is answered 404 without re-asking the origin")
		retryAfter  = flag.Duration("fleet-retry-after", time.Second, "Retry-After hint attached to shed responses")
	)
	flag.Parse()

	store, err := ipfs.NewBlockStore(*storeKind, *storeDir)
	if err != nil {
		fatal(err)
	}
	node, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Listen: *listen, Seed: *seed, Region: "US", Store: store})
	if err != nil {
		fatal(err)
	}
	defer node.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var boot []ipfs.PeerInfo
	if *bootstrap != "" {
		for _, s := range strings.Split(*bootstrap, ",") {
			info, err := ipfs.ParsePeerInfo(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			boot = append(boot, info)
		}
		if err := node.Bootstrap(ctx, boot); err != nil {
			fmt.Fprintf(os.Stderr, "bootstrap: %v (continuing)\n", err)
		}
	}

	// The HTTP face: a single gateway, or a fleet of them behind the
	// consistent-hash ring.
	var content http.Handler
	var pinners []*ipfs.Gateway // where -pin files go: every instance's node store
	nodes := []*ipfs.Node{node}
	if *fleetN > 1 {
		for i := 1; i < *fleetN; i++ {
			var s int64
			if *seed != 0 {
				s = *seed + int64(i)
			}
			n, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Seed: s, Region: "US"})
			if err != nil {
				fatal(err)
			}
			defer n.Close()
			// Every instance joins the cluster through the primary node
			// (plus any external bootstrap peers).
			if err := n.Bootstrap(ctx, append([]ipfs.PeerInfo{node.Info()}, boot...)); err != nil {
				fmt.Fprintf(os.Stderr, "fleet instance %d bootstrap: %v (continuing)\n", i, err)
			}
			nodes = append(nodes, n)
		}
		fleet := gwfleet.New(nodes, gwfleet.Config{
			LocalCacheBytes:  *cacheMB << 20,
			SharedCacheBytes: *sharedMB << 20,
			NegativeTTL:      *negTTL,
			MaxInflight:      *maxInflight,
			QueueHigh:        *queueHigh,
			QueueLow:         *queueLow,
			RetryAfter:       *retryAfter,
			Registry:         node.Telemetry().Registry(),
		})
		content = fleet
		// The ring may place a file on any instance, and a shedding
		// owner spills to its successors: each holds the pins.
		for i := 0; i < fleet.Size(); i++ {
			pinners = append(pinners, fleet.Gateway(i))
		}
		fmt.Printf("fleet of %d gateway instances, shared cache %d MiB\n", fleet.Size(), *sharedMB)
	} else {
		gw := ipfs.NewTCPGateway(node, *cacheMB<<20)
		content, pinners = gw, []*ipfs.Gateway{gw}
	}

	if *pins != "" {
		for _, f := range strings.Split(*pins, ",") {
			data, err := os.ReadFile(strings.TrimSpace(f))
			if err != nil {
				fatal(err)
			}
			var c ipfs.Cid
			for _, gw := range pinners {
				if c, err = gw.Pin(data); err != nil {
					fatal(err)
				}
			}
			fmt.Printf("pinned %s -> /ipfs/%s\n", f, c)
		}
	}

	fmt.Println("gateway PeerID:", node.ID())
	for _, a := range node.Addrs() {
		fmt.Println("P2P listening:", a)
	}
	fmt.Printf("HTTP gateway on http://%s/ipfs/{CID}\n", *httpAddr)
	fmt.Printf("introspection on http://%s/debug/metrics and /debug/trace/last\n", *httpAddr)

	mux := http.NewServeMux()
	mux.Handle("/", content)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.Handle("/debug/", telemetry.Handler(node.Telemetry()))

	srv := &http.Server{Addr: *httpAddr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	errCh := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()

	sctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Every node the daemon runs keeps its records alive (§3.1): the
	// 12 h republish and the hourly table refresh and record GC run
	// until the daemon is signalled.
	for i, n := range nodes {
		n.StartRepublisher(sctx, 0)
		n.DHT().StartMaintenance(sctx, 0, *seed+int64(i))
	}
	select {
	case err := <-errCh:
		fatal(err)
	case <-sctx.Done():
	}
	// In-flight gateway requests get a grace window to finish; the node
	// closes afterwards via the deferred Close.
	fmt.Println("shutting down...")
	shctx, cancelShutdown := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelShutdown()
	if err := srv.Shutdown(shctx); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

// Command ipfs-node runs one IPFS node on real TCP — a minimal kubo
// work-alike for local testnets.
//
// Usage:
//
//	# terminal 1: a bootstrap daemon
//	ipfs-node -listen 127.0.0.1:4001 -seed 1 daemon
//
//	# terminal 2: add and publish a file through a second node
//	ipfs-node -listen 127.0.0.1:4002 -seed 2 \
//	    -bootstrap /ip4/127.0.0.1/tcp/4001/p2p/<peerID> add ./file.bin
//
//	# terminal 3: retrieve it
//	ipfs-node -listen 127.0.0.1:4003 -seed 3 \
//	    -bootstrap /ip4/127.0.0.1/tcp/4001/p2p/<peerID> get <CID> out.bin
//
// Subcommands: daemon | id | add <file> | get <cid> [out] | explain <cid>
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

	"repro/internal/telemetry"
	"repro/ipfs"
)

// readHeaderTimeout bounds how long a client may take to send its
// request line and headers.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		seed      = flag.Int64("seed", 0, "identity seed (0 = random)")
		bootstrap = flag.String("bootstrap", "", "comma-separated bootstrap multiaddrs (/ip4/../tcp/../p2p/..)")
		client    = flag.Bool("client", false, "join as a DHT client (unreachable peers)")
		timeout   = flag.Duration("timeout", 60*time.Second, "operation timeout")
		debugHTTP = flag.String("debug-http", "", "daemon-mode introspection listen address (/healthz, /debug/metrics, /debug/trace/last)")
		storeKind = flag.String("blockstore", "mem", "blockstore backend: mem | pack")
		storeDir  = flag.String("blockstore-dir", "", "directory for the pack blockstore")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ipfs-node [flags] daemon|id|add <file>|get <cid> [out]|explain <cid>")
		os.Exit(2)
	}

	store, err := ipfs.NewBlockStore(*storeKind, *storeDir)
	if err != nil {
		fatal(err)
	}
	node, err := ipfs.NewTCPNode(ipfs.TCPNodeConfig{Listen: *listen, Seed: *seed, Client: *client, Region: "US", Store: store})
	if err != nil {
		fatal(err)
	}
	defer node.Close()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	if *bootstrap != "" {
		var infos []ipfs.PeerInfo
		for _, s := range strings.Split(*bootstrap, ",") {
			info, err := ipfs.ParsePeerInfo(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bootstrap %q: %w", s, err))
			}
			infos = append(infos, info)
		}
		if err := node.Bootstrap(ctx, infos); err != nil {
			fmt.Fprintf(os.Stderr, "bootstrap: %v (continuing)\n", err)
		}
		if err := node.PublishPeerRecord(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "peer record: %v (continuing)\n", err)
		}
	}

	switch args[0] {
	case "id":
		fmt.Println("PeerID:", node.ID())
		for _, a := range node.Addrs() {
			fmt.Println("Listening:", a)
		}

	case "daemon":
		fmt.Println("PeerID:", node.ID())
		for _, a := range node.Addrs() {
			fmt.Println("Listening:", a)
		}
		sctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		// A long-lived node keeps its records alive (§3.1): the 12 h
		// republish and the hourly table refresh and record GC run until
		// the daemon is signalled, not under the operation timeout.
		node.StartRepublisher(sctx, 0)
		node.DHT().StartMaintenance(sctx, 0, *seed)
		var srv *http.Server
		if *debugHTTP != "" {
			mux := http.NewServeMux()
			mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
				io.WriteString(w, "ok\n")
			})
			mux.Handle("/debug/", telemetry.Handler(node.Telemetry()))
			srv = &http.Server{Addr: *debugHTTP, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
			go func() {
				if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
					fmt.Fprintf(os.Stderr, "debug http: %v\n", err)
				}
			}()
			fmt.Printf("introspection on http://%s/debug/metrics\n", *debugHTTP)
		}
		fmt.Println("daemon running; ^C to stop")
		<-sctx.Done()
		if srv != nil {
			shctx, cancelShutdown := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancelShutdown()
			srv.Shutdown(shctx)
		}

	case "add":
		if len(args) < 2 {
			fatal(fmt.Errorf("add requires a file"))
		}
		data, err := os.ReadFile(args[1])
		if err != nil {
			fatal(err)
		}
		pub, err := node.AddAndPublish(ctx, data)
		if err != nil {
			fatal(err)
		}
		fmt.Println("added", pub.Cid)
		fmt.Printf("provider records stored on %d/%d peers (walk %.2fs, batch %.2fs)\n",
			pub.StoreOK, pub.StoreAttempts, pub.WalkDuration.Seconds(), pub.BatchDuration.Seconds())

	case "get":
		if len(args) < 2 {
			fatal(fmt.Errorf("get requires a CID"))
		}
		c, err := ipfs.ParseCid(args[1])
		if err != nil {
			fatal(err)
		}
		data, res, err := node.Retrieve(ctx, c)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("retrieved %d bytes from %s in %.2fs (discover %.2fs, fetch %.2fs, stretch %.1f)\n",
			len(data), res.Provider.Short(), res.Total.Seconds(), res.Discover().Seconds(),
			res.Fetch.Seconds(), res.Stretch())
		if len(args) >= 3 {
			if err := os.WriteFile(args[2], data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("wrote", args[2])
		}

	case "explain":
		if len(args) < 2 {
			fatal(fmt.Errorf("explain requires a CID"))
		}
		c, err := ipfs.ParseCid(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Print(c.Explain())

	default:
		fatal(fmt.Errorf("unknown subcommand %q", args[0]))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "error:", err)
	os.Exit(1)
}

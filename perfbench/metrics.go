package main

import "context"

// The benchmark's names. BENCHMARK.json at the repository root lists the
// same workloads and metrics for the driver; the smoke test fails when
// the two disagree.

// Workload names are final: later issues refer to them.
const (
	wlGateway = "gw_http_zipf"
	wlTCP     = "tcp_pubret"
	wlSim     = "sim_retrieve"
	wlPack    = "pack_mixed"
)

// workloadDef is one workload: why it is in the benchmark and how to
// build one instance of its system.
type workloadDef struct {
	Name  string
	Why   string
	setup func(ctx context.Context, cfg *config) (env, error)
}

// env is one built instance of a workload's system.
type env interface {
	// run warms up, then measures for cfg.seconds (a fixed-work workload
	// runs the work sized to it), checking every output.
	run(ctx context.Context, m *measurement) error
	// close stops everything set-up started and waits for it.
	close()
}

var workloads = []workloadDef{
	{wlGateway, "HTTP GETs, Zipf over a catalog 3x the gateway's caches: tier cascade, block store, DAG assembly; no DHT", setupGateway},
	{wlTCP, "1 MiB publish+retrieve pairs on a 16-node TCP mesh: writes beside reads; wire, TCP framing, DHT walk, chunker and CID", setupTCP},
	{wlSim, "5760 retrievals by 64 virtual-time clients on a 2000-peer event-driven simnet: scheduler, simnet, DHT; no TCP", setupSim},
	{wlPack, "70/15/15 Get/Put/Delete on a pack store while its own flush and compaction loop runs: the storage seam alone, then reopen and audit", setupPack},
}

// metricDef names one metric. Better is "lower" or "higher". Bound is
// the share of the parent's median by which an end-to-end metric may
// worsen before it counts as a regression. On is the workload whose
// traced pass measures a per-layer metric, onEvery for what every
// workload's traced pass measures, or onProbe.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	On     string
}

const (
	lower  = "lower"
	higher = "higher"

	onEvery = "all"
	onProbe = "probes"
)

// endToEnd: every workload reports every one. What the read and the
// write operation are on each workload is in the README.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "mb_per_s", Unit: "MB/s", Better: higher, Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "ttfb_p90_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
}

var perLayer = []metricDef{
	{Name: "gateway.tier_nginx_ratio", Unit: "ratio", Better: higher, On: wlGateway},
	{Name: "gateway.tier_nodestore_ratio", Unit: "ratio", Better: higher, On: wlGateway},
	{Name: "gateway.tier_network_ratio", Unit: "ratio", Better: lower, On: wlGateway},
	{Name: "gateway.nginx_p50_us", Unit: "us", Better: lower, On: wlGateway},
	{Name: "gateway.nodestore_p50_us", Unit: "us", Better: lower, On: wlGateway},
	{Name: "gateway.network_p50_us", Unit: "us", Better: lower, On: wlGateway},
	{Name: "gateway.http_p99_ms", Unit: "ms", Better: lower, On: wlGateway},
	{Name: "gateway.ttfb_p50_us", Unit: "us", Better: lower, On: wlGateway},
	{Name: "gateway.fetch_direct_nginx_ns", Unit: "ns", Better: lower, On: wlGateway},
	{Name: "gateway.fetch_direct_nodestore_ns", Unit: "ns", Better: lower, On: wlGateway},
	{Name: "gateway.http_overhead_us", Unit: "us", Better: lower, On: wlGateway},
	{Name: "gateway.alloc_kb_per_req", Unit: "KB", Better: lower, On: wlGateway},
	{Name: "gateway.mallocs_per_req", Unit: "count", Better: lower, On: wlGateway},
	{Name: "bitswap.blocks_per_miss", Unit: "count", Better: lower, On: wlGateway},
	{Name: "bitswap.want_haves_per_miss", Unit: "count", Better: lower, On: wlGateway},

	{Name: "core.add_p50_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "routing.provide_p50_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "dht.provide_walk_p50_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "dht.provide_store_p50_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "dht.walk_rpcs_per_publish", Unit: "count", Better: lower, On: wlTCP},
	{Name: "dht.store_rpcs_per_publish", Unit: "count", Better: lower, On: wlTCP},
	{Name: "core.retrieve_discover_p50_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "core.retrieve_fetch_p50_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "core.retrieve_p99_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "core.publish_p90_ms", Unit: "ms", Better: lower, On: wlTCP},
	{Name: "bitswap.want_haves_per_retrieve", Unit: "count", Better: lower, On: wlTCP},
	{Name: "bitswap.want_blocks_per_retrieve", Unit: "count", Better: lower, On: wlTCP},
	{Name: "core.bitswap_hit_ratio", Unit: "ratio", Better: higher, On: wlTCP},
	{Name: "core.alloc_kb_per_pair", Unit: "KB", Better: lower, On: wlTCP},
	{Name: "core.mallocs_per_pair", Unit: "count", Better: lower, On: wlTCP},

	{Name: "simtime.events", Unit: "count", Better: lower, On: wlSim},
	{Name: "simtime.events_per_s", Unit: "1/s", Better: higher, On: wlSim},
	{Name: "simtime.stalls", Unit: "count", Better: lower, On: wlSim},
	{Name: "simtime.run_wall_s", Unit: "s", Better: lower, On: wlSim},
	{Name: "simnet.rpcs", Unit: "count", Better: lower, On: wlSim},
	{Name: "simnet.rpcs_per_retrieve", Unit: "count", Better: lower, On: wlSim},
	{Name: "simnet.dropped", Unit: "count", Better: lower, On: wlSim},
	{Name: "simtime.mallocs_per_event", Unit: "count", Better: lower, On: wlSim},
	{Name: "simtime.alloc_kb_per_event", Unit: "KB", Better: lower, On: wlSim},
	{Name: "testnet.build_s", Unit: "s", Better: lower, On: wlSim},
	{Name: "core.sim_retrieve_p50_s", Unit: "sim_s", Better: lower, On: wlSim},
	{Name: "core.sim_publish_p50_s", Unit: "sim_s", Better: lower, On: wlSim},

	{Name: "block.pack.get_p99_us", Unit: "us", Better: lower, On: wlPack},
	{Name: "block.pack.put_p90_us", Unit: "us", Better: lower, On: wlPack},
	{Name: "block.pack.put_p99_us", Unit: "us", Better: lower, On: wlPack},
	{Name: "block.pack.delete_p50_us", Unit: "us", Better: lower, On: wlPack},
	{Name: "block.pack.compactions", Unit: "count", Better: higher, On: wlPack},
	{Name: "block.pack.compact_scan_p50_us", Unit: "us", Better: lower, On: wlPack},
	{Name: "block.pack.dead_ratio_end", Unit: "ratio", Better: lower, On: wlPack},
	{Name: "block.pack.volumes_end", Unit: "count", Better: lower, On: wlPack},
	{Name: "block.pack.space_amp", Unit: "ratio", Better: lower, On: wlPack},
	{Name: "block.pack.load_mb_per_s", Unit: "MB/s", Better: higher, On: wlPack},
	{Name: "block.pack.reopen_ms", Unit: "ms", Better: lower, On: wlPack},
	{Name: "block.pack.reopen_missing", Unit: "count", Better: lower, On: wlPack},
	{Name: "block.pack.reopen_resurrected", Unit: "count", Better: lower, On: wlPack},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: lower, On: onEvery},
	{Name: "proc.heap_inuse_mb_end", Unit: "MB", Better: lower, On: onEvery},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: lower, On: onEvery},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: higher, On: onEvery},

	{Name: "wire.marshal_nodes_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "wire.unmarshal_nodes_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "wire.marshal_block_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "wire.unmarshal_block_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "wire.roundtrip_allocs", Unit: "count", Better: lower, On: onProbe},
	{Name: "cid.sum_256k_mb_per_s", Unit: "MB/s", Better: higher, On: onProbe},
	{Name: "cid.parse_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "merkledag.build_1m_ms", Unit: "ms", Better: lower, On: onProbe},
	{Name: "merkledag.assemble_1m_ms", Unit: "ms", Better: lower, On: onProbe},
	{Name: "kbucket.nearest_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "transport.tcp_rpc_rtt_us", Unit: "us", Better: lower, On: onProbe},
	{Name: "transport.tcp_dial_ms", Unit: "ms", Better: lower, On: onProbe},
	{Name: "simtime.sleep_wake_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "simtime.go_park_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "simtime.sleep_wake_1k_waiters_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "simnet.rpc_ns", Unit: "ns", Better: lower, On: onProbe},
	{Name: "telemetry.trace_ns", Unit: "ns", Better: lower, On: onProbe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

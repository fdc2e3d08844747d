package experiments

import "strings"

// ledgerKind says where the reproduced side of a ledger row comes from.
type ledgerKind string

const (
	kindOutput  ledgerKind = "output"  // the simulation produces it
	kindInput   ledgerKind = "input"   // a named model constant plants it: a match is no evidence
	kindDefault ledgerKind = "default" // a protocol parameter the experiment sets, not a measurement
)

// ledgerRow is one quantity the paper reports (§5–§6).
type ledgerRow struct {
	id, quantity string
	paper        string // the paper's numbers, as the renders print them
	kind         ledgerKind
	note         string
	verb         string // what a render prints between "paper" and the numbers; "" is ": "
}

// ledger holds every number the paper reports that a render compares
// against, and it is the only place in this package that writes one.
var ledger = []ledgerRow{
	{id: "t4.pub", quantity: "publication delay p50 / p90 / p95 (s)", paper: "33.8 / 112.3 / 138.1", kind: kindOutput},
	{id: "t4.walk-share", quantity: "walk share of publication delay", paper: "87.9%", kind: kindOutput, note: "mean walk over mean publication"},
	{id: "t4.ret", quantity: "retrieval delay p50 / p90 / p95 (s)", paper: "2.90 / 4.34 / 4.74", kind: kindOutput},
	{id: "t4.ret.walks", quantity: "retrieval walks p50", paper: "<2s for 50%; single walk median 0.62s", kind: kindOutput, note: "reproduced: provider and peer walk together"},
	{id: "t4.stretch", quantity: "retrieval stretch p50 (Eq 2)", paper: "~4.3", kind: kindOutput},
	{id: "t4.success", quantity: "retrievals that succeed", paper: "100% retrieval success", kind: kindOutput, verb: " reports "},
	{id: "t2.top10", quantity: "top-10 AS share of IPs", paper: "64.9%", kind: kindInput, note: "geo's topASes sum to it"},
	{id: "t3.cloud", quantity: "cloud-hosted share of peers", paper: "<2.3%", kind: kindInput, note: "geo.CloudProviders sum to it"},
	{id: "f7a.reliable", quantity: "reliable peers (>90% uptime)", paper: "1.4%", kind: kindInput, note: "PopulationConfig.FracReliable"},
	{id: "f7b.unreachable", quantity: "never-reachable peers", paper: "33.1%", kind: kindInput, note: "PopulationConfig.FracUnreachable"},
	{id: "t5.nginx", quantity: "nginx tier: median / traffic / requests", paper: "nginx 0s/46.4%/46.0%", kind: kindOutput},
	{id: "t5.store", quantity: "node store tier: median / traffic / requests", paper: "node store 8ms/38.0%/40.2%", kind: kindOutput},
	{id: "t5.origin", quantity: "non-cached: median / traffic / requests", paper: "non-cached 4.04s/15.6%/13.8%", kind: kindOutput},
	{id: "f6.users", quantity: "gateway users by country", paper: "US 50.4%, CN 31.9%, HK 6.6%", kind: kindInput, note: "geo.GatewayUserShares' first three"},
	{id: "f11.size", quantity: "object size median / share above 100 KB", paper: "664.6KB / 0.791", kind: kindOutput},
	{id: "f11.fast", quantity: "responses under 250 ms", paper: "0.76", kind: kindOutput},
	{id: "f11.r", quantity: "size-latency Pearson r", paper: "0.13", kind: kindOutput},
	{id: "abl.k", quantity: "replication factor k", paper: "20", kind: kindDefault, verb: " default "},
	{id: "abl.alpha", quantity: "lookup concurrency alpha", paper: "3", kind: kindDefault, verb: " default "},
}

// cite is the paper's side of rows ids as a render prints it: "paper",
// the first row's verb, then every row's numbers joined by ", ".
func cite(ids ...string) string {
	numbers := make([]string, len(ids))
	for i, id := range ids {
		numbers[i] = ledgerRowByID(id).paper
	}
	verb := ledgerRowByID(ids[0]).verb
	if verb == "" {
		verb = ": "
	}
	return "paper" + verb + strings.Join(numbers, ", ")
}

func ledgerRowByID(id string) ledgerRow {
	for _, r := range ledger {
		if r.id == id {
			return r
		}
	}
	panic("experiments: no ledger row " + id)
}

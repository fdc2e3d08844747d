// Link-fault model: per-link loss probability, extra latency/jitter,
// and region-level partitions, all adjustable mid-run. The scenario
// engine schedules SetFaults / Partition / Heal calls as simtime events
// to replay the paper's imperfect-network conditions (lossy links,
// unreachable cohorts, regional outages) deterministically: every loss
// decision is a hash of the seed, the two endpoints and the virtual
// instant, never a shared-rng race.
package simnet

import (
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/peer"
)

// FaultProfile describes the fault behaviour of a link (or, as the
// network default, of every link).
type FaultProfile struct {
	// LossRate is the probability in [0,1] that one message transit —
	// request leg or response leg, drawn independently — is lost. The
	// caller waits out Config.DropTimeout before detecting the loss.
	LossRate float64
	// ExtraLatency is added to every transit on the link: a congested
	// or long-haul path beyond the speed-of-light model.
	ExtraLatency time.Duration
	// Jitter adds a uniformly drawn [0, Jitter) term per transit on top
	// of ExtraLatency (deterministic under the seeded hash).
	Jitter time.Duration
}

// zero reports whether the profile injects no faults at all.
func (p FaultProfile) zero() bool {
	return p.LossRate <= 0 && p.ExtraLatency <= 0 && p.Jitter <= 0
}

// linkKey identifies an unordered region pair for per-link overrides.
type linkKey struct{ a, b geo.Region }

func mkLinkKey(a, b geo.Region) linkKey {
	if b < a {
		a, b = b, a
	}
	return linkKey{a, b}
}

// SetFaults replaces the network-wide default fault profile. Links
// with a SetLinkFaults override keep their override. Safe to call
// mid-run; the scenario engine schedules it as a simtime event.
func (n *Network) SetFaults(p FaultProfile) {
	n.faultMu.Lock()
	n.faults = p
	n.faultMu.Unlock()
}

// Faults returns the current network-wide default fault profile.
func (n *Network) Faults() FaultProfile {
	n.faultMu.RLock()
	defer n.faultMu.RUnlock()
	return n.faults
}

// SetLinkFaults overrides the fault profile for the (unordered) region
// pair a–b, taking precedence over the network default.
func (n *Network) SetLinkFaults(a, b geo.Region, p FaultProfile) {
	n.faultMu.Lock()
	if n.linkFaults == nil {
		n.linkFaults = make(map[linkKey]FaultProfile)
	}
	n.linkFaults[mkLinkKey(a, b)] = p
	n.faultMu.Unlock()
}

// linkProfile resolves the fault profile for traffic between regions a
// and b: an exact per-link override wins, else the network default.
func (n *Network) linkProfile(a, b geo.Region) FaultProfile {
	n.faultMu.RLock()
	defer n.faultMu.RUnlock()
	if p, ok := n.linkFaults[mkLinkKey(a, b)]; ok {
		return p
	}
	return n.faults
}

// Partition installs a regional partition: traffic between a peer
// inside the named regions and a peer outside them is cut in both
// directions (dials time out, in-flight requests drop) until Heal.
// Calling Partition again replaces the previous partition set.
func (n *Network) Partition(regions ...geo.Region) {
	set := make(map[geo.Region]bool, len(regions))
	for _, r := range regions {
		set[r] = true
	}
	n.faultMu.Lock()
	n.partition = set
	n.faultMu.Unlock()
}

// Heal removes the regional partition.
func (n *Network) Heal() {
	n.faultMu.Lock()
	n.partition = nil
	n.faultMu.Unlock()
}

// PartitionedRegions returns the currently partitioned regions, sorted,
// or nil when the network is whole.
func (n *Network) PartitionedRegions() []geo.Region {
	n.faultMu.RLock()
	defer n.faultMu.RUnlock()
	if len(n.partition) == 0 {
		return nil
	}
	out := make([]geo.Region, 0, len(n.partition))
	for r := range n.partition {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// partitioned reports whether regions a and b sit on opposite sides of
// the installed partition.
func (n *Network) partitioned(a, b geo.Region) bool {
	n.faultMu.RLock()
	defer n.faultMu.RUnlock()
	if len(n.partition) == 0 {
		return false
	}
	return n.partition[a] != n.partition[b]
}

// Dialable reports whether a peer accepts inbound dials (independent of
// NAT mappings held open by its own outbound dials).
func (n *Network) Dialable(id peer.ID) bool {
	n.mu.RLock()
	nd := n.nodes[id]
	n.mu.RUnlock()
	return nd != nil && nd.dialable
}

// lossDraw decides whether one message transit between a and b is lost
// under rate. The decision is a hash of (seed, endpoints, kind, virtual
// instant) — deterministic across replays like jitter draws; kind
// separates the request leg from the response leg so the two are
// independent.
func (n *Network) lossDraw(a, b peer.ID, kind string, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return hashFloat(n.cfg.Seed, a, b, kind, n.cfg.Time.Now().UnixNano()) < rate
}

// faultDelay is the per-transit latency tax of a fault profile: the
// fixed ExtraLatency plus a deterministic jitter draw.
func (n *Network) faultDelay(a, b peer.ID, p FaultProfile) time.Duration {
	if p.ExtraLatency <= 0 && p.Jitter <= 0 {
		return 0
	}
	return p.ExtraLatency + n.jitter(a, b, "fault", p.Jitter)
}

// hashFloat derives a uniform float64 in [0,1) from an FNV-1a hash of
// the interaction key — the loss-model sibling of hashDur.
func hashFloat(seed int64, a, b peer.ID, kind string, at int64) float64 {
	h := uint64(14695981039346656037)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mixInt := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	mixInt(uint64(seed))
	mix(string(a))
	mix(string(b))
	mix(kind)
	mixInt(uint64(at))
	return float64(h>>11) / float64(1<<53)
}

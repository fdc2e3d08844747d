package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/multiaddr"
	"repro/internal/peer"
	"repro/internal/slab"
	"repro/internal/wire"
)

// refLedger is the two-map ledger Ledger replaced, kept as the
// reference the model test compares against.
type refLedger struct {
	cycle    uint64
	now      func() time.Time
	acksOnly bool
	acks     map[string]refStamp // target|cidKey -> last ack
	targets  map[string][]wire.PeerInfo
}

type refStamp struct {
	cycle uint64
	at    time.Time
}

func (l *refLedger) PruneStale() {
	for k, stamp := range l.acks {
		if l.now().Sub(stamp.at) > DefaultAckFreshness {
			delete(l.acks, k)
		}
	}
}

func (l *refLedger) Advance() {
	l.cycle++
	l.acks = map[string]refStamp{}
}

func (l *refLedger) Confirm(target wire.PeerInfo, cidKeys ...string) {
	for _, k := range cidKeys {
		l.acks[string(target.ID)+"|"+k] = refStamp{cycle: l.cycle + 1, at: l.now()}
		if l.acksOnly {
			continue
		}
		found := false
		for _, t := range l.targets[k] {
			found = found || t.ID == target.ID
		}
		if !found {
			l.targets[k] = append(l.targets[k], target)
		}
	}
}

func (l *refLedger) Fresh(target peer.ID, cidKey string) bool {
	stamp := l.acks[string(target)+"|"+cidKey]
	return stamp.cycle == l.cycle+1 && l.now().Sub(stamp.at) <= DefaultAckFreshness
}

func (l *refLedger) SetTargets(cidKey string, targets []wire.PeerInfo) {
	l.targets[cidKey] = append([]wire.PeerInfo(nil), targets...)
}

func (l *refLedger) Targets(cidKey string) []wire.PeerInfo {
	return append([]wire.PeerInfo(nil), l.targets[cidKey]...)
}

// TestLedgerModel runs 10 000 seeded random operations — Confirm,
// Fresh, SetTargets, Targets, Advance, PruneStale, Len, under a clock
// that moves — on both kinds of ledger against the reference, with a
// quarter of the CID keys too long for the slab's fixed key.
func TestLedgerModel(t *testing.T) {
	for _, acksOnly := range []bool{false, true} {
		t.Run(fmt.Sprintf("acksOnly=%v", acksOnly), func(t *testing.T) {
			rng := rand.New(rand.NewSource(24))
			now := time.Date(2021, 11, 1, 0, 0, 0, 0, time.UTC)
			clock := func() time.Time { return now }
			l := NewLedger(clock)
			if acksOnly {
				l = NewAckLedger(clock)
			}
			ref := &refLedger{now: clock, acksOnly: acksOnly, acks: map[string]refStamp{}, targets: map[string][]wire.PeerInfo{}}

			keys := make([]string, 30)
			for i := range keys {
				keys[i] = fmt.Sprintf("cid-key-%02d", i)
				if i%4 == 0 {
					keys[i] += strings.Repeat("-long", 10)
				}
			}
			peers := make([]wire.PeerInfo, 25)
			for i := range peers {
				peers[i] = wire.PeerInfo{
					ID:    peer.ID(fmt.Sprintf("peer-%02d", i)),
					Addrs: []multiaddr.Multiaddr{multiaddr.MustParse(fmt.Sprintf("/ip4/10.0.0.%d/tcp/4001", i+1))},
				}
			}
			for op := 0; op < 10000; op++ {
				key, p := keys[rng.Intn(len(keys))], peers[rng.Intn(len(peers))]
				switch r := rng.Intn(40); {
				case r < 12:
					batch := []string{key, keys[rng.Intn(len(keys))]}
					l.Confirm(p, batch...)
					ref.Confirm(p, batch...)
				case r < 22:
					if got, want := l.Fresh(p.ID, key), ref.Fresh(p.ID, key); got != want {
						t.Fatalf("op %d: Fresh(%s, %s) = %v, reference %v", op, p.ID, key, got, want)
					}
				case r < 25:
					set := make([]wire.PeerInfo, 0, 6)
					for _, i := range rng.Perm(len(peers))[:rng.Intn(7)] {
						set = append(set, peers[i])
					}
					l.SetTargets(key, set)
					ref.SetTargets(key, set)
				case r < 33:
					got, want := l.Targets(key), ref.Targets(key)
					if len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d: Targets(%s) = %v, reference %v", op, key, got, want)
					}
				case r < 34:
					l.Advance()
					ref.Advance()
				case r < 35:
					l.PruneStale()
					ref.PruneStale()
				default:
					now = now.Add(time.Duration(rng.Int63n(int64(10 * time.Minute))))
				}
				if got, want := l.Len(), len(ref.acks); got != want {
					t.Fatalf("op %d: Len = %d, reference %d", op, got, want)
				}
			}
			// Everything the ledger still holds is an ack or a target: no
			// slot, and no interned peer, outlives both.
			held := len(ref.acks)
			for k, ts := range ref.targets {
				for _, p := range ts {
					if _, acked := ref.acks[string(p.ID)+"|"+k]; !acked {
						held++
					}
				}
			}
			if got := l.slots.Len(); got != held {
				t.Errorf("%d slots held for %d acks and un-acked targets", got, held)
			}
			l.Advance()
			for _, k := range keys {
				l.SetTargets(k, nil)
			}
			if l.slots.Len() != 0 || l.peers.Len() != 0 {
				t.Errorf("emptied ledger still holds %d slots and %d interned peers", l.slots.Len(), l.peers.Len())
			}
		})
	}
}

// TestStateLayoutsArePointerFree: an ack or target at rest holds
// nothing the collector has to trace.
func TestStateLayoutsArePointerFree(t *testing.T) {
	if err := slab.PointerFree(reflect.TypeOf(ledgerSlot{})); err != nil {
		t.Error(err)
	}
}

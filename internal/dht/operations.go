package dht

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cid"
	"repro/internal/kbucket"
	"repro/internal/peer"
	"repro/internal/record"
	"repro/internal/simtime"
	"repro/internal/swarm"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Errors returned by DHT operations.
var (
	ErrNoProviders = errors.New("dht: no providers found")
	ErrNoPeerRec   = errors.New("dht: peer record not found")
	ErrNoIPNSRec   = errors.New("dht: ipns record not found")
)

// storeRPCTimeout bounds one provider-record store RPC. It exceeds the
// 45 s websocket handshake timeout so the Figure 9c spike structure is
// produced by the transports, not clipped by us.
const storeRPCTimeout = 60 * time.Second

// ProvideResult instruments one content publication (Figure 3 steps
// 2–3, measured in Figures 9a–c). Its phases are spans: the dht-walk to
// the k closest peers (Fig 9b) and the store-batch of concurrent
// ADD_PROVIDER RPCs (Fig 9c).
type ProvideResult struct {
	Walk          WalkInfo
	StoreAttempts int
	StoreOK       int
	// StoreTargets is the batch's target set (the k closest peers, the
	// snapshot neighbourhood, or the indexer set) and AckedTargets the
	// subset that acknowledged the store — the per-target detail the
	// republish ack ledger records so the next cycle can batch records
	// per peer instead of re-walking per CID.
	StoreTargets []wire.PeerInfo
	AckedTargets []wire.PeerInfo
}

// Provide publishes a provider record for c: walk to the k closest
// peers, then push the record to each with concurrent fire-and-forget
// RPCs (§3.1).
func (d *DHT) Provide(ctx context.Context, c cid.Cid) (ProvideResult, error) {
	var res ProvideResult
	key := c.Bytes()
	target := kbucket.KeyForBytes(key)

	closest, winfo, err := d.WalkClosest(ctx, target, key)
	res.Walk = winfo
	if err != nil {
		return res, err
	}
	if len(closest) == 0 {
		return res, fmt.Errorf("dht: provide %s: no peers to store on", c)
	}

	provInfo := wire.PeerInfo{ID: d.ident.ID}
	if !d.cfg.OmitProviderAddrs {
		provInfo.Addrs = d.sw.Addrs()
	}
	req := wire.Message{Type: wire.TAddProvider, Key: key, Providers: []wire.PeerInfo{provInfo}, Peers: d.selfInfo()}
	res.StoreTargets = closest
	res.StoreAttempts = len(closest)
	res.AckedTargets = StoreBatch(ctx, d.sw, storeRPCTimeout, closest, req)
	res.StoreOK = len(res.AckedTargets)
	if res.StoreOK == 0 {
		return res, fmt.Errorf("dht: provide %s: all %d store RPCs failed", c, res.StoreAttempts)
	}
	return res, nil
}

// FindProvidersStream walks the DHT for provider records of c, calling
// emit with each record-carrying response's providers as it arrives.
// emit returning false stops the walk (returning false on the first
// batch reproduces the §3.2 single-response termination exactly);
// returning true keeps the walk going toward convergence, so later
// responses become fail-over candidates instead of being discarded.
func (d *DHT) FindProvidersStream(ctx context.Context, c cid.Cid, emit func([]wire.PeerInfo) bool) WalkInfo {
	key := c.Bytes()
	target := kbucket.KeyForBytes(key)
	_, _, info := d.walk(ctx, target,
		func() wire.Message { return wire.Message{Type: wire.TGetProviders, Key: key} },
		func(resp wire.Message) bool {
			if len(resp.Providers) == 0 {
				return false
			}
			providers := make([]wire.PeerInfo, 0, len(resp.Providers))
			for _, p := range resp.Providers {
				if addrs, ok := d.sw.Book().Get(p.ID); ok && len(p.Addrs) == 0 {
					p.Addrs = addrs
				}
				providers = append(providers, p)
			}
			return !emit(providers)
		})
	return info
}

// FindPeer resolves a PeerID to its signed peer record via a second DHT
// walk — the Peer Discovery phase of §3.2.
func (d *DHT) FindPeer(ctx context.Context, id peer.ID) (wire.PeerInfo, WalkInfo, error) {
	key := []byte(id)
	target := kbucket.KeyForBytes(key)
	_, final, info := d.walk(ctx, target,
		func() wire.Message { return wire.Message{Type: wire.TGetPeerRecord, Key: key} },
		func(resp wire.Message) bool { return resp.PeerRec != nil })
	if final == nil || final.PeerRec == nil {
		if err := ctx.Err(); err != nil {
			return wire.PeerInfo{}, info, err
		}
		return wire.PeerInfo{}, info, ErrNoPeerRec
	}
	rec := final.PeerRec
	if err := rec.Verify(); err != nil {
		return wire.PeerInfo{}, info, fmt.Errorf("dht: find peer %s: %w", id.Short(), err)
	}
	if rec.ID != id {
		return wire.PeerInfo{}, info, fmt.Errorf("dht: find peer: record for wrong peer %s", rec.ID.Short())
	}
	d.sw.Book().Add(id, rec.Addrs)
	return wire.PeerInfo{ID: id, Addrs: rec.Addrs}, info, nil
}

// PublishPeerRecord signs and stores the local peer record on the k
// closest peers to our PeerID — "publication of the peer record follows
// the same CID-to-PeerID procedure" (§3.1).
func (d *DHT) PublishPeerRecord(ctx context.Context) error {
	key := []byte(d.ident.ID)
	closest, _, err := d.WalkClosest(ctx, kbucket.KeyForBytes(key), key)
	if err != nil {
		return err
	}
	rec := record.NewPeerRecord(d.ident, d.sw.Addrs(), d.nextSeq(), d.src.Now())
	acked := StoreBatch(ctx, d.sw, storeRPCTimeout, closest, wire.Message{Type: wire.TPutPeerRecord, Key: key, PeerRec: &rec, Peers: d.selfInfo()})
	if len(acked) == 0 && len(closest) > 0 {
		return fmt.Errorf("dht: peer record: all %d store RPCs failed", len(closest))
	}
	return nil
}

// PutIPNS stores an IPNS record (an opaque signed payload, §3.3) on the
// k closest peers to key.
func (d *DHT) PutIPNS(ctx context.Context, key []byte, data []byte) (int, error) {
	target := kbucket.KeyForBytes(key)
	closest, _, err := d.WalkClosest(ctx, target, key)
	if err != nil {
		return 0, err
	}
	acked := StoreBatch(ctx, d.sw, storeRPCTimeout, closest, wire.Message{Type: wire.TPutIPNS, Key: key, IPNSData: data, Peers: d.selfInfo()})
	if len(acked) == 0 {
		return 0, fmt.Errorf("dht: put ipns: all stores failed")
	}
	return len(acked), nil
}

// StoreBatch pushes req to every target with concurrent fire-and-forget
// RPCs, each bounded by timeout — the §3.1 record-store fan-out every
// publication shares — as one "store-batch" span, and returns the
// targets that acknowledged.
func StoreBatch(ctx context.Context, sw *swarm.Swarm, timeout time.Duration, targets []wire.PeerInfo, req wire.Message) []wire.PeerInfo {
	ctx, sp := telemetry.StartSpan(ctx, "store-batch")
	defer sp.End()
	src := sw.Time()
	g := simtime.NewGroup(src)
	var mu sync.Mutex
	var acked []wire.PeerInfo
	for _, info := range targets {
		info := info
		g.Go(ctx, func(gctx context.Context) {
			rctx, cancel := src.WithTimeout(gctx, timeout)
			defer cancel()
			resp, err := sw.Request(rctx, info.ID, info.Addrs, req)
			if err == nil && resp.Type == wire.TAck {
				mu.Lock()
				acked = append(acked, info)
				mu.Unlock()
			}
		})
	}
	g.Wait(ctx)
	return acked
}

// GetIPNS retrieves an IPNS record for key, returning the first
// validator-accepted payload encountered during the walk.
func (d *DHT) GetIPNS(ctx context.Context, key []byte) ([]byte, error) {
	target := kbucket.KeyForBytes(key)
	_, final, _ := d.walk(ctx, target,
		func() wire.Message { return wire.Message{Type: wire.TGetIPNS, Key: key} },
		func(resp wire.Message) bool {
			if len(resp.IPNSData) == 0 {
				return false
			}
			if d.validator != nil && d.validator(key, resp.IPNSData) != nil {
				return false
			}
			return true
		})
	if final == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrNoIPNSRec
	}
	return final.IPNSData, nil
}

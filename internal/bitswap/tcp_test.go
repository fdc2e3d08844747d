package bitswap

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/block"
	"repro/internal/multicodec"
	"repro/internal/peer"
	"repro/internal/swarm"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestCorruptBlockRejectedOverTCP is TestCorruptBlockRejected on the
// real transport: the received frame's payload becomes the block
// without a copy, so the one hash NewWithCid runs on it is the only
// thing between a lying peer and the store. A block-sized payload with
// a single flipped byte is refused and nothing is stored; the honest
// payload, over the same connection, is accepted.
func TestCorruptBlockRejectedOverTCP(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	server, victim := peer.MustNewIdentity(rng), peer.MustNewIdentity(rng)
	listen := func(id peer.Identity) *transport.TCPEndpoint {
		ep, err := transport.ListenTCP(id, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ep.Close() })
		return ep
	}
	serverEp, victimEp := listen(server), listen(victim)

	payload := make([]byte, 256<<10)
	rng.Read(payload)
	want := block.New(multicodec.Raw, payload)
	flipped := append([]byte(nil), payload...)
	flipped[len(flipped)/2] ^= 0x01
	var lie atomic.Bool
	lie.Store(true)
	serverEp.SetHandler(func(_ context.Context, _ peer.ID, req wire.Message) wire.Message {
		switch req.Type {
		case wire.TWantHave:
			return wire.Message{Type: wire.THave, Key: req.Key}
		case wire.TWantBlock:
			if lie.Load() {
				return wire.Message{Type: wire.TBlock, Key: req.Key, BlockData: flipped}
			}
			return wire.Message{Type: wire.TBlock, Key: req.Key, BlockData: want.Data()}
		}
		return wire.ErrorMessage("?")
	})

	store := block.NewMemStore()
	bs := New(swarm.New(victim, victimEp, nil), store, Config{})
	from := wire.PeerInfo{ID: server.ID, Addrs: serverEp.Addrs()}
	ctx := context.Background()
	if _, err := bs.NewSession(ctx, from).Get(want.Cid()); !errors.Is(err, block.ErrHashMismatch) {
		t.Fatalf("corrupt block over TCP: err = %v, want ErrHashMismatch", err)
	}
	if store.Len() != 0 {
		t.Fatal("a block that failed its hash was stored")
	}
	lie.Store(false)
	got, err := bs.NewSession(ctx, from).Get(want.Cid())
	if err != nil || !got.Cid().Equal(want.Cid()) || !store.Has(want.Cid()) {
		t.Fatalf("honest block over TCP: %v", err)
	}
}

//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds (`make allocs`).
package mixnet

import (
	"testing"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// TestRoundAllocs pins what a warm conversation round costs a server per
// onion: nothing. A mixing hop and the last hop are driven together over
// transport.Mem from an entry leg — received frames recycled, each layer
// unwrapped where it arrived with its key agreed on the stack, keys and
// replies in one buffer per round — with batches of two sizes: the
// difference is what an onion costs, and what is left is a per-round
// constant (the frame-sized buffers and slabs, the slices of views, the
// permutation, the dead-drop table). Cover traffic is pinned apart, in
// TestSealNoiseAllocs: its paths are agreed off the round's path, by the
// pool's refill.
func TestRoundAllocs(t *testing.T) {
	pubs, privs, err := NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	_, addrs, stop, err := StartChain(mem, pubs, privs, Config{Workers: 1, AllowRoundReuse: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	_, entryPriv := box.KeyPairFromSeed([]byte("alloc-entry"))
	leg := NewChainLeg(mem, addrs[0], entryPriv, pubs[0])
	defer leg.Close()

	perRound := func(n int) float64 {
		batch := make([][]byte, n)
		for i := range batch {
			batch[i], _, _ = newUser(t, "u").convoOnion(t, 1, pubs, nil, nil)
		}
		round := func() {
			if replies, err := leg.Forward(wire.ProtoConvo, 1, 0, batch, nil); err != nil || len(replies) != n {
				t.Fatalf("%d replies, %v", len(replies), err)
			}
		}
		round() // sizes every connection's kept buffers for this batch
		return testing.AllocsPerRun(5, round)
	}
	const small, large = 40, 240
	a, b := perRound(small), perRound(large)
	perOnion := (b - a) / (large - small)
	fixed := a - perOnion*small
	t.Logf("a round of two hops allocates %.2f per onion + %.0f", perOnion, fixed)
	if perOnion > 0.05 {
		t.Errorf("two hops allocate %.2f times per onion, want 0", perOnion)
	}
	if fixed > 60 {
		t.Errorf("two hops allocate %.0f times per round besides, want at most 60", fixed)
	}
}

// TestSealNoiseAllocs: with its paths already agreed, a mixing server's
// cover traffic — payloads drawn into the onions' tails, every onion
// sealed where it lies — costs the same few allocations for 10 onions as
// for 300.
func TestSealNoiseAllocs(t *testing.T) {
	pubs, privs, err := NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0], Workers: 1, Net: transport.NewMem(), NextAddr: "unused"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gen := convo.NoiseGen{}
	cost := func(n int) float64 {
		paths := make([]onion.Path, n)
		for i := range paths {
			if paths[i], err = onion.NewPath(s.pool.peers, nil); err != nil {
				t.Fatal(err)
			}
		}
		agreed := func(int) ([]onion.Path, error) { return paths, nil }
		return testing.AllocsPerRun(5, func() {
			onions, err := s.sealNoise(agreed, n, convo.RequestSize, 1, func(payloads [][]byte) { gen.Fill(payloads, n/2) })
			if err != nil || len(onions) != n {
				t.Fatal(err)
			}
		})
	}
	if few, many := cost(10), cost(300); few != many || many > 8 {
		t.Fatalf("sealing 10 noise onions allocates %.0f times and 300 %.0f: want the same, at most 8", few, many)
	}
}

// TestAgreePathsAllocs: agreeing noise paths — what the pool's refill and
// a short round's inline top-up do by the hundred — costs the same few
// allocations for 64 two-layer paths as for 8: the downstream keys are
// parsed once, at NewServer, and the paths are agreed in chunks of
// onion.PathChunk, all their agreements in one slab and each chunk's keys
// drawn at once and agreed in one box.Agree.
func TestAgreePathsAllocs(t *testing.T) {
	pubs, privs, err := NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0], Workers: 1, Net: transport.NewMem(), NextAddr: "unused"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A closed pool agrees every path inline and starts no refill.
	s.pool.close()
	cost := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if paths, err := s.pool.get(n); err != nil || len(paths) != n {
				t.Fatal(err)
			}
		})
	}
	if few, many := cost(8), cost(64); few != many || many > 8 {
		t.Fatalf("agreeing 8 two-layer noise paths allocates %.0f times and 64 %.0f: want the same, at most 8", few, many)
	}
}

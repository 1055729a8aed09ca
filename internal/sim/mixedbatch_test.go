package sim

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// legCount is what a wire observer counts on one leg, per direction: the
// records that crossed it and their bytes.
type legCount struct{ records, bytes [2]int }

// countLegs taps every dial to addrs with a pass-through record counter.
func countLegs(mitm *transport.MITM, addrs ...string) func() map[string]legCount {
	var mu sync.Mutex
	counts := make(map[string]legCount)
	for _, addr := range addrs {
		mitm.Intercept(addr, func(dir transport.Direction, _ int, rec []byte) [][]byte {
			mu.Lock()
			c := counts[addr]
			c.records[dir]++
			c.bytes[dir] += len(rec)
			counts[addr] = c
			mu.Unlock()
			return [][]byte{rec}
		})
	}
	return func() map[string]legCount {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[string]legCount, len(counts))
		for k, v := range counts {
			out[k] = v
		}
		return out
	}
}

// mixedSlot is one onion of the mixed batch and what its reply must be:
// after removing the reply layers of the hops that accepted it (keys),
// either want (a delivered message) or all zeros.
type mixedSlot struct {
	onion []byte
	keys  []*[box.KeySize]byte
	want  []byte
}

// mixedIdle is the number of idle clients in the mixed batch.
const mixedIdle = 260

// mixedBatch builds a round's batch of every kind of onion a chain must
// take in its stride: two conversing pairs, idle clients enough to carry
// every frame past the 64 KiB a connection's writer buffers, one request
// of the wrong size inside three good layers, onions that stop
// decrypting at hop 0, 1 and 2, and ones too short, too long and empty.
func mixedBatch(t *testing.T, round uint64, pubs []box.PublicKey) []mixedSlot {
	t.Helper()
	wrap := func(payload []byte, layers int) mixedSlot {
		o, keys, err := onion.Wrap(payload, round, 0, pubs[:layers], nil)
		if err != nil {
			t.Fatal(err)
		}
		return mixedSlot{onion: o, keys: keys}
	}
	garbage := func(n int) []byte {
		b := make([]byte, n)
		rand.Read(b)
		return b
	}
	var slots []mixedSlot
	for pair := 0; pair < 2; pair++ {
		aPub, aPriv := box.KeyPairFromSeed([]byte(fmt.Sprintf("mixed-a-%d", pair)))
		bPub, _ := box.KeyPairFromSeed([]byte(fmt.Sprintf("mixed-b-%d", pair)))
		secret, err := convo.DeriveSecret(&aPriv, &bPub)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range []struct {
			pub *box.PublicKey
			msg string
		}{{&aPub, "from a"}, {&bPub, "from b"}} {
			req, err := convo.BuildRequest(secret, round, side.pub, []byte(side.msg))
			if err != nil {
				t.Fatal(err)
			}
			s := wrap(req.Marshal(), 3)
			s.want = req.Sealed[:]
			slots = append(slots, s)
		}
		// Each side is handed the other's sealed message.
		n := len(slots)
		slots[n-2].want, slots[n-1].want = slots[n-1].want, slots[n-2].want
	}
	for i := 0; i < mixedIdle; i++ {
		req, err := convo.BuildRequest(nil, round, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, wrap(req.Marshal(), 3))
	}
	slots = append(slots,
		wrap(garbage(convo.RequestSize-1), 3),                       // malformed request
		mixedSlot{onion: garbage(onion.Size(convo.RequestSize, 3))}, // undecryptable at hop 0
		wrap(garbage(onion.Size(convo.RequestSize, 2)), 1),          // at hop 1
		wrap(garbage(onion.Size(convo.RequestSize, 1)), 2),          // at hop 2
		mixedSlot{onion: []byte{1, 2, 3}},
		mixedSlot{onion: append(bytes.Clone(slots[0].onion), 9, 9, 9, 9, 9)},
		mixedSlot{onion: []byte{}},
	)
	return slots
}

// TestMixedBatchThroughChain sends the mixed batch twice down one entry
// connection of a 3-hop ChainNet (so the second round is unwrapped in the
// buffers the first left behind) and holds the chain to what it did
// before rounds ran in place: every reply is what its onion is owed, in
// its own slot; the last server sees exactly real + noise requests; and
// a wire observer counts, on every leg and in both directions, the same
// records and the same bytes — the figures below were measured on the
// parent commit.
func TestMixedBatchThroughChain(t *testing.T) {
	mitm := transport.NewMITM(transport.NewMem())
	var mu sync.Mutex
	var hist [][3]int
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 3, Net: mitm,
		Chain: mixnet.Config{
			ConvoNoise: noise.Fixed{N: 4},
			Workers:    2,
			ConvoObserver: func(_ uint64, m1, m2, more int) {
				mu.Lock()
				hist = append(hist, [3]int{m1, m2, more})
				mu.Unlock()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	counts := countLegs(mitm, cn.ServerAddrs...)
	_, entryPriv := box.KeyPairFromSeed([]byte("mixed-entry"))
	entry := &mixnet.Peer{Net: mitm, Addr: cn.ServerAddrs[0], Priv: entryPriv, Pub: cn.Pubs[0]}
	defer entry.Close()

	full := convo.SealedSize + 3*box.Overhead
	for round := uint64(1); round <= 2; round++ {
		slots := mixedBatch(t, round, cn.Pubs)
		batch := make([][]byte, len(slots))
		for i := range slots {
			batch[i] = slots[i].onion
		}
		resp, err := entry.Do(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: round, Body: batch}, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(resp.Body) != len(slots) {
			t.Fatalf("round %d: %d replies for %d onions", round, len(resp.Body), len(slots))
		}
		for i, s := range slots {
			reply := resp.Body[i]
			if len(reply) != full {
				t.Fatalf("round %d slot %d: reply of %d bytes, want %d", round, i, len(reply), full)
			}
			inner, err := onion.UnwrapReply(reply, round, 0, s.keys)
			if err != nil {
				t.Fatalf("round %d slot %d: %v", round, i, err)
			}
			want := s.want
			if want == nil {
				want = make([]byte, full-len(s.keys)*box.Overhead)
			}
			if !bytes.Equal(inner, want) {
				t.Fatalf("round %d slot %d: reply is not what the onion is owed", round, i)
			}
		}
	}

	// Per round the last server counts 4 paired and the idle real
	// requests (the malformed one is no dead-drop access) and, from each
	// of two mixing servers, 4 singles and 2 pairs of noise.
	mu.Lock()
	defer mu.Unlock()
	want := [3]int{mixedIdle + 8, 2 + 4, 0}
	if len(hist) != 2 || hist[0] != want || hist[1] != want {
		t.Fatalf("last server's histograms %v, want two of %v", hist, want)
	}
	// Handshake, then per round the frame's first 64 KiB and its rest.
	parent := map[string]legCount{
		cn.ServerAddrs[0]: {records: [2]int{5, 5}, bytes: [2]int{226223, 167168}},
		cn.ServerAddrs[1]: {records: [2]int{5, 5}, bytes: [2]int{204831, 160832}},
		cn.ServerAddrs[2]: {records: [2]int{5, 5}, bytes: [2]int{182967, 155896}},
	}
	for addr, got := range counts() {
		if got != parent[addr] {
			t.Errorf("leg into %s carried %+v, the parent commit %+v", addr, got, parent[addr])
		}
	}
}

package mixnet

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"testing"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// reuseChain is a served 3-hop chain that accepts a round number again.
func reuseChain(t *testing.T, convoNoise, dialNoise noise.Distribution) ([]*Server, []box.PublicKey, []string, *transport.Mem, *sink) {
	t.Helper()
	pubs, privs, err := NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	mem, snk := transport.NewMem(), &sink{}
	servers, addrs, stop, err := StartChain(mem, pubs, privs, Config{
		ConvoNoise: convoNoise, DialNoise: dialNoise, Workers: 2, AllowRoundReuse: true,
	}, snk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return servers, pubs, addrs, mem, snk
}

// staleAt wraps size bytes of garbage for the servers before position at:
// an onion every earlier hop accepts and hop `at` cannot decrypt.
func staleAt(t *testing.T, round uint64, pubs []box.PublicKey, at int) ([]byte, []*[box.KeySize]byte) {
	t.Helper()
	inner := make([]byte, onion.Size(convo.RequestSize, len(pubs)-at))
	rand.Read(inner)
	if at == 0 {
		return inner, nil
	}
	o, keys, err := onion.Wrap(inner, round, 0, pubs[:at], nil)
	if err != nil {
		t.Fatal(err)
	}
	return o, keys
}

func cloneAll(batch [][]byte) [][]byte {
	out := make([][]byte, len(batch))
	for i := range batch {
		out[i] = bytes.Clone(batch[i])
	}
	return out
}

// TestExportedRoundsLeaveCallerBytes: ConvoRound and DialRound are called
// repeatedly on one batch (replays under AllowRoundReuse, the layer
// benchmark, the evaluation harness). They run the in-place round on a
// copy: the caller's bytes come back as they went in, and the same batch
// replayed gives byte-identical replies — noise and shuffle differ between
// the two passes, the replies do not depend on them.
func TestExportedRoundsLeaveCallerBytes(t *testing.T) {
	servers, pubs, _, _, snk := reuseChain(t, noise.Fixed{N: 3}, noise.Fixed{N: 1})
	alice, bob := newUser(t, "alice"), newUser(t, "bob")
	a, aKeys, aSecret := alice.convoOnion(t, 1, pubs, &bob.pub, []byte("hi bob"))
	b, _, _ := bob.convoOnion(t, 1, pubs, &alice.pub, []byte("hi alice"))
	idle, _, _ := alice.convoOnion(t, 1, pubs, nil, nil)
	stale, _ := staleAt(t, 1, pubs, 1)
	batch := [][]byte{a, []byte("short"), b, stale, idle, bytes.Repeat([]byte{7}, len(a))}
	orig := cloneAll(batch)

	first, err := servers[0].ConvoRound(1, batch)
	if err != nil {
		t.Fatal(err)
	}
	second, err := servers[0].ConvoRound(1, batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !bytes.Equal(batch[i], orig[i]) {
			t.Fatalf("ConvoRound modified the caller's onion %d", i)
		}
		if !bytes.Equal(first[i], second[i]) {
			t.Fatalf("replaying the batch changed reply %d", i)
		}
	}
	if msg, ok := alice.readReply(t, 1, aKeys, aSecret, &bob.pub, first[0]); !ok || string(msg) != "hi alice" {
		t.Fatalf("alice got %q ok=%v", msg, ok)
	}

	const m = 2
	req, err := dial.BuildRequest(&alice.pub, &bob.pub, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	inv, _, err := onion.Wrap(req.Marshal(), 1, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	invs := [][]byte{inv, []byte("short")}
	origInvs := cloneAll(invs)
	for pass := 0; pass < 2; pass++ {
		if err := servers[0].DialRound(1, m, invs); err != nil {
			t.Fatal(err)
		}
		found := dial.ScanBucket(snk.last().Invitations(dial.BucketOf(&bob.pub, m)), &bob.pub, &bob.priv)
		if len(found) != 1 || found[0].Sender != alice.pub {
			t.Fatalf("pass %d: bob found %d invitations", pass, len(found))
		}
	}
	for i := range invs {
		if !bytes.Equal(invs[i], origInvs[i]) {
			t.Fatalf("DialRound modified the caller's onion %d", i)
		}
	}
}

// TestRefusedOnionUntouchedZeroReply: the in-place round writes nothing
// into an onion whose layer does not authenticate, and answers it — like a
// malformed or wrong-size one — with zeros of exactly the layer's reply
// size in its own slot, whichever hop refuses it. An onion keyed by a
// low-order point — a hostile client picks its own ephemeral key — is
// refused at the hop that agrees a key with it and changes no other key of
// its batched agreement: in a served round of two full chunks (32 onions
// on two workers), wherever in its chunk it sits, every honest onion gets
// its partner's message back.
func TestRefusedOnionUntouchedZeroReply(t *testing.T) {
	servers, pubs, addrs, mem, _ := reuseChain(t, noise.Fixed{N: 2}, nil)
	size := convo.SealedSize + 3*box.Overhead
	zeros := make([]byte, size)
	t.Run("refused at every hop", func(t *testing.T) {
		alice, bob := newUser(t, "alice"), newUser(t, "bob")
		a, aKeys, aSecret := alice.convoOnion(t, 1, pubs, &bob.pub, []byte("m1"))
		b, _, _ := bob.convoOnion(t, 1, pubs, &alice.pub, []byte("m2"))
		forged := bytes.Clone(a)
		forged[len(forged)/2] ^= 1
		stale1, keys1 := staleAt(t, 1, pubs, 1)
		stale2, keys2 := staleAt(t, 1, pubs, 2)
		long := append(bytes.Clone(b), 0)
		// The raw slices are kept: the round replaces the batch's elements.
		raw := [][]byte{forged, a, []byte{}, stale1, b, stale2, long[:len(long):len(long)], make([]byte, onion.LayerOverhead-1)}
		before := cloneAll(raw)

		replies, err := servers[0].convoRound(1, append([][]byte(nil), raw...))
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 2, 6, 7} { // refused at this hop
			if !bytes.Equal(raw[i], before[i]) {
				t.Fatalf("onion %d was refused yet modified in place", i)
			}
			if !bytes.Equal(replies[i], zeros) {
				t.Fatalf("reply %d to a refused onion is not %d zero bytes", i, size)
			}
		}
		// Refused further down: every hop before sealed its layer over the
		// refusing hop's zeros.
		for i, keys := range map[int][]*[box.KeySize]byte{3: keys1, 5: keys2} {
			checkZeroReply(t, replies[i], 1, keys, size)
		}
		if msg, ok := alice.readReply(t, 1, aKeys, aSecret, &bob.pub, replies[1]); !ok || string(msg) != "m2" {
			t.Fatalf("alice got %q ok=%v", msg, ok)
		}
	})

	_, entryPriv := box.KeyPairFromSeed([]byte("low-order-entry"))
	leg := NewChainLeg(mem, addrs[0], entryPriv, pubs[0])
	defer leg.Close()
	const round, n = 2, 2 * box.MaxBatch
	// Fifteen conversing pairs fill 30 slots; the hostile onions take
	// position p of each chunk.
	type sender struct {
		u, peer *user
		onion   []byte
		keys    []*[box.KeySize]byte
		secret  *[32]byte
	}
	senders := make([]sender, n-2)
	for i := range senders {
		senders[i].u = newUser(t, fmt.Sprintf("pair-%d-%d", i/2, i%2))
	}
	for i := range senders {
		s := &senders[i]
		s.peer = senders[i^1].u
		s.onion, s.keys, s.secret = s.u.convoOnion(t, round, pubs, &s.peer.pub, []byte(fmt.Sprintf("from %d", i)))
	}
	// One hostile onion is keyed by an order-8 point at hop 0, the other by
	// u = 0 at hop 1.
	lowOrder0, _ := hex.DecodeString("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800")
	hostile0, _ := staleAt(t, round, pubs, 0)
	copy(hostile0, lowOrder0)
	inner := make([]byte, onion.Size(convo.RequestSize, len(pubs)-1))
	rand.Read(inner[box.KeySize:])
	hostile1, keys1, err := onion.Wrap(inner, round, 0, pubs[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < box.MaxBatch; p++ {
		t.Run(fmt.Sprintf("low-order key at chunk position %d", p), func(t *testing.T) {
			batch := make([][]byte, 0, n)
			at := make([]int, 0, len(senders))
			for len(batch) < n {
				switch len(batch) {
				case p:
					batch = append(batch, hostile0)
				case box.MaxBatch + p:
					batch = append(batch, hostile1)
				default:
					at = append(at, len(batch))
					batch = append(batch, senders[len(at)-1].onion)
				}
			}
			replies, err := leg.Forward(wire.ProtoConvo, round, 0, batch, nil)
			if err != nil || len(replies) != n {
				t.Fatalf("%d replies, %v", len(replies), err)
			}
			if !bytes.Equal(replies[p], zeros) {
				t.Fatal("the onion with a low-order key at hop 0 is not answered with zeros")
			}
			checkZeroReply(t, replies[box.MaxBatch+p], round, keys1, size)
			for i, slot := range at {
				s := &senders[i]
				want := fmt.Sprintf("from %d", i^1)
				if msg, ok := s.u.readReply(t, round, s.keys, s.secret, &s.peer.pub, replies[slot]); !ok || string(msg) != want {
					t.Fatalf("sender %d in slot %d got %q ok=%v, want %q", i, slot, msg, ok, want)
				}
			}
		})
	}
}

// checkZeroReply: a reply to an onion of round `round` refused after
// len(keys) hops opens under their keys to that hop's zeros.
func checkZeroReply(t *testing.T, reply []byte, round uint64, keys []*[box.KeySize]byte, size int) {
	t.Helper()
	inner, err := onion.UnwrapReply(reply, round, 0, keys)
	if err != nil || len(reply) != size {
		t.Fatalf("reply (%d bytes): %v", len(reply), err)
	}
	if !bytes.Equal(inner, make([]byte, len(inner))) || len(inner) != size-len(keys)*box.Overhead {
		t.Fatalf("hop %d did not answer %d zero bytes", len(keys), size-len(keys)*box.Overhead)
	}
}

// TestRecycledFrameNoBleed drives one entry connection, so every hop
// receives each round into the buffer the previous round was unwrapped in.
// A slot that held a real onion in round r and holds an undecryptable one
// in round r+1 is answered with zeros, not with anything of round r; a
// shorter batch after a longer one gets exactly its own count.
func TestRecycledFrameNoBleed(t *testing.T) {
	_, pubs, addrs, mem, _ := reuseChain(t, nil, nil)
	_, entryPriv, err := box.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	leg := NewChainLeg(mem, addrs[0], entryPriv, pubs[0])
	defer leg.Close()
	alice, bob := newUser(t, "alice"), newUser(t, "bob")
	size := convo.SealedSize + 3*box.Overhead

	// Round 1: every slot at every hop holds a real onion.
	a, _, _ := alice.convoOnion(t, 1, pubs, &bob.pub, []byte("round one"))
	b, _, _ := bob.convoOnion(t, 1, pubs, &alice.pub, []byte("round one"))
	c, _, _ := alice.convoOnion(t, 1, pubs, nil, nil)
	if replies, err := leg.Forward(wire.ProtoConvo, 1, 0, [][]byte{a, b, c}, nil); err != nil || len(replies) != 3 {
		t.Fatalf("round 1: %d replies, %v", len(replies), err)
	}

	// Round 2, shorter: hop 0 cannot decrypt slot 0; slot 1 passes hop 0
	// and is refused by hop 1, in whichever slot the shuffle put it.
	stale0, _ := staleAt(t, 2, pubs, 0)
	stale1, keys1 := staleAt(t, 2, pubs, 1)
	replies, err := leg.Forward(wire.ProtoConvo, 2, 0, [][]byte{stale0, stale1}, nil)
	if err != nil || len(replies) != 2 {
		t.Fatalf("round 2: %d replies, %v", len(replies), err)
	}
	if !bytes.Equal(replies[0], make([]byte, size)) {
		t.Fatal("hop 0 answered an undecryptable onion with something other than zeros")
	}
	inner, err := onion.UnwrapReply(replies[1], 2, 0, keys1)
	if err != nil || !bytes.Equal(inner, make([]byte, size-box.Overhead)) {
		t.Fatalf("hop 1 answered an undecryptable onion with something other than zeros (%v)", err)
	}

	// Round 3, longer again, is a normal round.
	a3, aKeys, aSecret := alice.convoOnion(t, 3, pubs, &bob.pub, []byte("three"))
	b3, _, _ := bob.convoOnion(t, 3, pubs, &alice.pub, []byte("still here"))
	replies, err = leg.Forward(wire.ProtoConvo, 3, 0, [][]byte{a3, stale0, b3, c}, nil)
	if err != nil || len(replies) != 4 {
		t.Fatalf("round 3: %d replies, %v", len(replies), err)
	}
	if msg, ok := alice.readReply(t, 3, aKeys, aSecret, &bob.pub, replies[0]); !ok || string(msg) != "still here" {
		t.Fatalf("round 3: alice got %q ok=%v", msg, ok)
	}
	// c was wrapped for round 1: refused at hop 0 in round 3.
	if !bytes.Equal(replies[1], make([]byte, size)) || !bytes.Equal(replies[3], make([]byte, size)) {
		t.Fatal("round 3: refused onions not answered with zeros")
	}
}

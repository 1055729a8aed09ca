package mixnet

// Adversarial tests for the chain-hop leg (server i → server i+1): the
// same MITM harness PR 3 pointed at the router↔shard leg, now aimed at
// the inter-server hop, plus impersonation and plaintext-refusal checks
// for the entry leg. Together with shard_test.go and the sim chain
// matrix, every networked leg has a tamper/replay/swap suite.

import (
	"errors"
	"sync/atomic"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// networkedPair builds a 2-server chain where the first server dials the
// second over dialNet ("last" on listenNet) — the minimal topology whose
// only networked leg is the chain hop under test.
func networkedPair(t *testing.T, listenNet, dialNet transport.Network) (*Server, []box.PublicKey) {
	t.Helper()
	pubs, privs, err := NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	last, err := NewServer(Config{Position: 1, ChainPubs: pubs, Priv: privs[1]})
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenNet.Listen("last")
	if err != nil {
		t.Fatal(err)
	}
	go last.Serve(l)
	first, err := NewServer(Config{
		Position: 0, ChainPubs: pubs, Priv: privs[0],
		ConvoNoise: noise.Fixed{N: 1},
		Net:        dialNet, NextAddr: "last",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		first.Close()
		l.Close()
		last.Close()
	})
	return first, pubs
}

// convoBatch builds one real onion for the round.
func convoBatch(t *testing.T, round uint64, pubs []box.PublicKey) [][]byte {
	t.Helper()
	alice := newUser(t, "mitm-alice")
	o, _, _ := alice.convoOnion(t, round, pubs, nil, nil)
	return [][]byte{o}
}

// bigBatch builds a batch large enough to span several 64 KB transport
// records — replay and swap attacks need a multi-record frame so the
// nonce-schedule violation is hit while the frame is still in flight
// (a single-record frame is fully delivered before the duplicate).
func bigBatch(t *testing.T, round uint64, pubs []box.PublicKey, n int) [][]byte {
	t.Helper()
	alice := newUser(t, "mitm-bulk")
	batch := make([][]byte, n)
	for i := range batch {
		o, _, _ := alice.convoOnion(t, round, pubs, nil, nil)
		batch[i] = o
	}
	return batch
}

// TestChainHopMITMTamperAbortsRound: flipping one byte of the encrypted
// server→server traffic aborts the round with an authentication error —
// never silently corrupted replies — and the hop recovers on a fresh
// connection once the tap is disarmed.
func TestChainHopMITMTamperAbortsRound(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	mitm.Intercept("last", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			rec[len(rec)/2] ^= 0x01
		}
		return [][]byte{rec}
	})
	first, pubs := networkedPair(t, mem, mitm)

	if _, err := first.ConvoRound(1, convoBatch(t, 1, pubs)); err != nil {
		t.Fatalf("healthy round through passive tap: %v", err)
	}

	armed.Store(true)
	_, err := first.ConvoRound(2, convoBatch(t, 2, pubs))
	if err == nil {
		t.Fatal("round with tampered chain hop succeeded")
	}
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("tampered hop returned %v, want an ErrAuth-classified abort", err)
	}

	armed.Store(false)
	if _, err := first.ConvoRound(3, convoBatch(t, 3, pubs)); err != nil {
		t.Fatalf("round after tamper stopped: %v", err)
	}
}

// TestChainHopMITMReplayAborts: replaying an encrypted record on the
// chain hop desynchronizes the nonce schedule and kills the round.
func TestChainHopMITMReplayAborts(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	mitm.Intercept("last", func(dir transport.Direction, index int, rec []byte) [][]byte {
		// index 0 is the handshake hello; duplicate every armed data
		// record (the connection persists across rounds, so the armed
		// round's records carry whatever index the stream is up to).
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			return [][]byte{rec, rec}
		}
		return [][]byte{rec}
	})
	first, pubs := networkedPair(t, mem, mitm)

	if _, err := first.ConvoRound(1, convoBatch(t, 1, pubs)); err != nil {
		t.Fatalf("healthy round: %v", err)
	}
	armed.Store(true)
	if _, err := first.ConvoRound(2, bigBatch(t, 2, pubs, 200)); err == nil {
		t.Fatal("round with replayed chain-hop record succeeded")
	}
}

// TestChainHopMITMSwapAborts: reordering two encrypted records on the
// hop fails authentication on the first out-of-order record.
func TestChainHopMITMSwapAborts(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	var held []byte
	mitm.Intercept("last", func(dir transport.Direction, index int, rec []byte) [][]byte {
		// index 0 is the handshake hello — pass it through so the redial
		// after the abort is not stuck waiting out the handshake timeout.
		if !armed.Load() || dir != transport.ClientToServer || index == 0 {
			return [][]byte{rec}
		}
		// Hold each armed record back and emit it after its successor:
		// consecutive records cross the wire swapped.
		if held == nil {
			held = append([]byte(nil), rec...)
			return nil
		}
		out := [][]byte{rec, held}
		held = nil
		return out
	})
	first, pubs := networkedPair(t, mem, mitm)

	if _, err := first.ConvoRound(1, convoBatch(t, 1, pubs)); err != nil {
		t.Fatalf("healthy round: %v", err)
	}
	armed.Store(true)
	if _, err := first.ConvoRound(2, bigBatch(t, 2, pubs, 200)); err == nil {
		t.Fatal("round with swapped chain-hop records succeeded")
	}
}

// TestChainHopImpersonatorRejected: a listener that does not hold the
// successor's descriptor key cannot complete the handshake, so the batch
// never reaches it and the round aborts.
func TestChainHopImpersonatorRejected(t *testing.T) {
	mem := transport.NewMem()
	pubs, privs, err := NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	_, wrongPriv, err := box.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := mem.Listen("last")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				sc := transport.SecureServer(raw, wrongPriv, []box.PublicKey{pubs[0]})
				if sc.Handshake() == nil {
					t.Error("impersonator completed a handshake without the descriptor key")
				}
				sc.Close()
			}()
		}
	}()

	first, err := NewServer(Config{
		Position: 0, ChainPubs: pubs, Priv: privs[0],
		ConvoNoise: noise.Fixed{N: 1},
		Net:        mem, NextAddr: "last",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()
	if _, err := first.ConvoRound(1, convoBatch(t, 1, pubs)); err == nil {
		t.Fatal("round through an impersonated successor succeeded")
	}
}

// TestPlaintextEntryDialRejected: a peer speaking plain frames to the
// chain head gets nothing — the handshake fails before any frame is
// parsed, so there is no plaintext path into the chain.
func TestPlaintextEntryDialRejected(t *testing.T) {
	mem := transport.NewMem()
	pubs, privs, err := NewChainKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := mem.Listen("head")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	raw, err := mem.Dial("head")
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()
	onions := convoBatch(t, 1, pubs)
	if err := conn.Send(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: 1, Body: onions}); err == nil {
		if _, err := conn.Recv(); err == nil {
			t.Fatal("plaintext entry dial got a reply")
		}
	}
}

// TestEntryLegAcceptsAnyClientKey: the chain head does not restrict who
// may submit batches — two unrelated client identities both complete the
// entry-leg handshake (server-only authentication), and each still gets
// a fully authenticated channel.
func TestEntryLegAcceptsAnyClientKey(t *testing.T) {
	mem := transport.NewMem()
	pubs, privs, err := NewChainKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := mem.Listen("head")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	for round := uint64(1); round <= 2; round++ {
		conn := dialEntry(t, mem, "head", pubs[0]) // fresh identity each dial
		batch := convoBatch(t, round, pubs)
		if err := conn.Send(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: round, Body: batch}); err != nil {
			t.Fatalf("round %d send: %v", round, err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatalf("round %d recv: %v", round, err)
		}
		if resp.Kind != wire.KindReplies || len(resp.Body) != 1 {
			t.Fatalf("round %d: bad response %+v", round, resp)
		}
		conn.Close()
	}
}

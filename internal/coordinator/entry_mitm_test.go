package coordinator

// Adversarial tests for the entry leg (coordinator → first chain
// server): the PR 3 MITM harness pointed at the third and last networked
// leg. The coordinator must detect tampering, replay, and reordering on
// its batches, refuse an impersonated chain head, and recover once the
// attack stops.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// entryRig wires a coordinator to a real single-server chain, dialing it
// over dialNet ("chain-head" listens on listenNet) — the minimal
// topology whose only networked leg is the entry leg. exchanges > 1
// inflates each client's per-round submission so a batch spans several
// 64 KB transport records (replay and swap need a multi-record frame).
func entryRig(t *testing.T, dialNet transport.Network, listenNet *transport.Mem, exchanges uint32) (*Coordinator, []box.PublicKey) {
	t.Helper()
	pubs, privs, err := mixnet.NewChainKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := mixnet.NewServer(mixnet.Config{Position: 0, ChainPubs: pubs, Priv: privs[0]})
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenNet.Listen("chain-head")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	co, err := New(Config{
		Net:            dialNet,
		ChainAddr:      "chain-head",
		ChainPub:       pubs[0],
		ConvoExchanges: exchanges,
		SubmitTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		co.Close()
		l.Close()
		srv.Close()
	})
	return co, pubs
}

// submitter connects a raw wire client to the coordinator that answers
// every conversation announce with k fake onions, keeping rounds
// non-empty without a full client stack.
func submitter(t *testing.T, co *Coordinator, chain []box.PublicKey, k int) {
	t.Helper()
	mem := transport.NewMem()
	l, err := mem.Listen("entry")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(l)
	raw, err := mem.Dial("entry")
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	t.Cleanup(func() { conn.Close(); l.Close() })
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if msg.Kind != wire.KindAnnounce || msg.Proto != wire.ProtoConvo {
				continue
			}
			onions := fakeOnions(t, chain, msg.Round, k)
			if err := conn.Send(&wire.Message{
				Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: msg.Round, Body: onions,
			}); err != nil {
				return
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for co.NumClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("submitter registration timed out")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEntryLegMITMTamperAbortsRound: one flipped byte on the entry leg
// aborts the round with an error instead of feeding the chain a forged
// batch, and rounds resume once the tap is disarmed.
func TestEntryLegMITMTamperAbortsRound(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	mitm.Intercept("chain-head", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			rec[len(rec)/2] ^= 0x01
		}
		return [][]byte{rec}
	})
	co, _ := entryRig(t, mitm, mem, 1)

	ctx := context.Background()
	if _, _, err := co.RunConvoRound(ctx); err != nil {
		t.Fatalf("healthy round through passive tap: %v", err)
	}

	armed.Store(true)
	if _, _, err := co.RunConvoRound(ctx); err == nil {
		t.Fatal("round with tampered entry leg succeeded")
	}

	armed.Store(false)
	if _, _, err := co.RunConvoRound(ctx); err != nil {
		t.Fatalf("round after tamper stopped: %v", err)
	}
}

// TestEntryLegMITMReplayAborts: a replayed entry-leg record fails the
// nonce schedule and the round aborts.
func TestEntryLegMITMReplayAborts(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	mitm.Intercept("chain-head", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			return [][]byte{rec, rec}
		}
		return [][]byte{rec}
	})
	co, pubs := entryRig(t, mitm, mem, 256)
	submitter(t, co, pubs, 256) // ≈107 KB per batch: several records

	ctx := context.Background()
	if _, _, err := co.RunConvoRound(ctx); err != nil {
		t.Fatalf("healthy round: %v", err)
	}
	armed.Store(true)
	if _, _, err := co.RunConvoRound(ctx); err == nil {
		t.Fatal("round with replayed entry-leg record succeeded")
	}
}

// TestEntryLegMITMSwapAborts: reordering two encrypted entry-leg records
// fails authentication on the first out-of-order record.
func TestEntryLegMITMSwapAborts(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	var held []byte
	mitm.Intercept("chain-head", func(dir transport.Direction, index int, rec []byte) [][]byte {
		// Pass the handshake hello (index 0) through so the redial after
		// the abort is not stuck waiting out the handshake timeout.
		if !armed.Load() || dir != transport.ClientToServer || index == 0 {
			return [][]byte{rec}
		}
		if held == nil {
			held = append([]byte(nil), rec...)
			return nil
		}
		out := [][]byte{rec, held}
		held = nil
		return out
	})
	co, pubs := entryRig(t, mitm, mem, 256)
	submitter(t, co, pubs, 256)

	ctx := context.Background()
	if _, _, err := co.RunConvoRound(ctx); err != nil {
		t.Fatalf("healthy round: %v", err)
	}
	armed.Store(true)
	if _, _, err := co.RunConvoRound(ctx); err == nil {
		t.Fatal("round with swapped entry-leg records succeeded")
	}
}

// TestEntryLegImpersonatorRejected: a listener without the chain head's
// descriptor key never receives a batch — the coordinator authenticates
// the server before the first onion crosses the wire.
func TestEntryLegImpersonatorRejected(t *testing.T) {
	mem := transport.NewMem()
	pub, _ := box.KeyPairFromSeed([]byte("real-chain-head"))
	_, wrongPriv := box.KeyPairFromSeed([]byte("impostor"))

	l, err := mem.Listen("chain-head")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := make(chan error, 8)
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				sc := transport.SecureServerAny(raw, wrongPriv)
				got <- sc.Handshake()
				sc.Close()
			}()
		}
	}()

	co, err := New(Config{
		Net:           mem,
		ChainAddr:     "chain-head",
		ChainPub:      pub,
		SubmitTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	if _, _, err := co.RunConvoRound(context.Background()); err == nil {
		t.Fatal("round through an impersonated chain head succeeded")
	}
	// The impostor's own handshake attempt must have failed too: without
	// the descriptor key it cannot even decrypt the hello, let alone a
	// batch.
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("impostor completed the entry-leg handshake")
		}
		if !errors.Is(err, transport.ErrAuth) {
			t.Fatalf("impostor handshake failed with %v, want ErrAuth", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("impostor never saw a connection")
	}
}

// TestEntryLegWrongProtoReplyRejected: a chain head that answers a
// conversation batch with a dialing-protocol KindReplies — right key,
// right kind, right round — must fail the round and lose the
// connection. The coordinator's own chain RPC used to check kind and
// round only; the one mixnet.Peer validation now covers this leg as it
// always covered the chain hops.
func TestEntryLegWrongProtoReplyRejected(t *testing.T) {
	mem := transport.NewMem()
	pub, priv := box.KeyPairFromSeed([]byte("confused-chain-head"))
	l, err := mem.Listen("chain-head")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var accepted atomic.Int32
	severed := make(chan error, 8)
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				conn := wire.NewConn(transport.SecureServerAny(raw, priv))
				defer conn.Close()
				for {
					msg, err := conn.Recv()
					if err != nil {
						severed <- err
						return
					}
					conn.Send(&wire.Message{Kind: wire.KindReplies, Proto: wire.ProtoDial, Round: msg.Round, Body: msg.Body})
				}
			}()
		}
	}()

	co, err := New(Config{Net: mem, ChainAddr: "chain-head", ChainPub: pub, SubmitTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	_, _, err = co.RunConvoRound(context.Background())
	if !errors.Is(err, mixnet.ErrBadResponse) {
		t.Fatalf("convo round answered with a dial-proto reply returned %v, want ErrBadResponse", err)
	}
	select {
	case <-severed:
	case <-time.After(2 * time.Second):
		t.Fatal("coordinator kept the connection to a chain head that answered the wrong protocol")
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("round was sent on %d connections; a wrong answer must not be resent", n)
	}
}

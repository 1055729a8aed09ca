package coordinator

// Adversarial tests for the frontend pipe (leg ⓪, frontend →
// coordinator): the MITM harness pointed at the entry tier's internal
// leg. A forged or replayed KindFrontBatch must poison the pipe before
// it reaches the round, a reordered KindFrontReplies/announce stream
// must poison the frontend side, an impersonated coordinator must fail
// the handshake, and an attacked pipe must look like an attack
// (ErrAuth), never like a frontend crash (EOF).

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// frontRig wires a coordinator with a single-server chain and a
// frontend-pipe listener, both on listenNet ("server-0", "entry-front").
// The pipe is the only leg a test dials through its MITM, so the tap sees
// exactly the KindFrontBatch/KindFrontReplies stream.
func frontRig(t *testing.T, listenNet *transport.Mem) (*Coordinator, []box.PublicKey, box.PublicKey) {
	t.Helper()
	pubs, privs, err := mixnet.NewChainKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs, stopChain, err := mixnet.StartChain(listenNet, pubs, privs, mixnet.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	frontPub, frontPriv := box.KeyPairFromSeed([]byte("front-pipe-key"))
	co, err := New(Config{
		Net: listenNet, ChainAddr: addrs[0], ChainPub: pubs[0],
		FrontIdentity: frontPriv,
		SubmitTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := listenNet.Listen("entry-front")
	if err != nil {
		t.Fatal(err)
	}
	go co.ServeFrontends(l)
	t.Cleanup(func() {
		co.Close()
		l.Close()
		stopChain()
	})
	return co, pubs, frontPub
}

// frontPipe opens a raw frontend pipe through net — the wire-level
// equivalent of a frontend process, letting tests drive the pipe
// protocol one frame at a time.
func frontPipe(t *testing.T, net transport.Network, frontPub box.PublicKey) *wire.Conn {
	t.Helper()
	raw, err := net.Dial("entry-front")
	if err != nil {
		t.Fatal(err)
	}
	_, priv := box.KeyPairFromSeed([]byte("test-frontend"))
	sec := transport.SecureClient(raw, priv, frontPub)
	if err := sec.Handshake(); err != nil {
		t.Fatalf("pipe handshake: %v", err)
	}
	conn := wire.NewConn(sec)
	t.Cleanup(func() { conn.Close() })
	return conn
}

// waitFrontends blocks until the coordinator sees n connected pipes.
func waitFrontends(t *testing.T, co *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for co.NumFrontends() != n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frontend pipes connected", co.NumFrontends(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// convoResult carries one RunConvoRound outcome across a goroutine.
type convoResult struct {
	round uint64
	n     int
	err   error
}

// runConvoAsync drives one conversation round in the background.
func runConvoAsync(co *Coordinator) chan convoResult {
	ch := make(chan convoResult, 1)
	go func() {
		round, n, err := co.RunConvoRound(context.Background())
		ch <- convoResult{round, n, err}
	}()
	return ch
}

// recvAnnounce reads frames until the round announcement arrives.
func recvAnnounce(t *testing.T, conn *wire.Conn) *wire.Message {
	t.Helper()
	for {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatalf("waiting for announce: %v", err)
		}
		if msg.Kind == wire.KindAnnounce && msg.Proto == wire.ProtoConvo {
			return msg
		}
	}
}

// recvUntilErr drains the pipe until it fails and returns the error —
// the frame the victim uses to classify the failure.
func recvUntilErr(conn *wire.Conn) error {
	for {
		if _, err := conn.Recv(); err != nil {
			return err
		}
	}
}

// TestFrontPipeMITMTamperPoisonsPipe: one flipped byte in a
// KindFrontBatch record never reaches the round — the round completes
// without the frontend's clients — and the pipe is poisoned with an
// authenticated alert, so the honest frontend sees "attack", not
// "coordinator crashed".
func TestFrontPipeMITMTamperPoisonsPipe(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	mitm.Intercept("entry-front", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			rec[len(rec)/2] ^= 0x01
		}
		return [][]byte{rec}
	})
	co, pubs, frontPub := frontRig(t, mem)
	conn := frontPipe(t, mitm, frontPub)
	waitFrontends(t, co, 1)

	// Healthy round through the passive tap.
	done := runConvoAsync(co)
	ann := recvAnnounce(t, conn)
	if err := conn.Send(wire.FrontBatchMessage(wire.ProtoConvo, ann.Round, 1, fakeOnions(t, pubs, ann.Round, 1))); err != nil {
		t.Fatal(err)
	}
	if res := <-done; res.err != nil || res.n != 1 {
		t.Fatalf("healthy round: n=%d err=%v", res.n, res.err)
	}

	// Forged batch: the round must close without it. From here on a
	// persistent reader drains the pipe — the coordinator's fatal alert
	// is best-effort and skipped if the victim lets outbound frames back
	// up, exactly like a real frontend that reads its pipe continuously.
	armed.Store(true)
	annc := make(chan *wire.Message, 4)
	errc := make(chan error, 1)
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				errc <- err
				return
			}
			if msg.Kind == wire.KindAnnounce && msg.Proto == wire.ProtoConvo {
				annc <- msg
			}
		}
	}()
	done = runConvoAsync(co)
	ann = <-annc
	if err := conn.Send(wire.FrontBatchMessage(wire.ProtoConvo, ann.Round, 1, fakeOnions(t, pubs, ann.Round, 1))); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("round during pipe attack must complete without the pipe, got %v", res.err)
	}
	if res.n != 0 {
		t.Fatalf("forged batch reached the round: %d participants", res.n)
	}
	if err := <-errc; !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("poisoned pipe failed with %v, want ErrAuth (distinguishable from a crash)", err)
	}
}

// TestFrontPipeMITMReplayPoisonsPipe: a replayed KindFrontBatch record
// fails the nonce schedule — the duplicate never reaches the
// coordinator and the pipe dies ErrAuth-classed.
func TestFrontPipeMITMReplayPoisonsPipe(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	mitm.Intercept("entry-front", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			return [][]byte{rec, rec}
		}
		return [][]byte{rec}
	})
	co, pubs, frontPub := frontRig(t, mem)
	conn := frontPipe(t, mitm, frontPub)
	waitFrontends(t, co, 1)

	done := runConvoAsync(co)
	ann := recvAnnounce(t, conn)
	if err := conn.Send(wire.FrontBatchMessage(wire.ProtoConvo, ann.Round, 1, fakeOnions(t, pubs, ann.Round, 1))); err != nil {
		t.Fatal(err)
	}
	if res := <-done; res.err != nil || res.n != 1 {
		t.Fatalf("healthy round: n=%d err=%v", res.n, res.err)
	}

	armed.Store(true)
	done = runConvoAsync(co)
	ann = recvAnnounce(t, conn)
	errc := make(chan error, 1)
	go func() { errc <- recvUntilErr(conn) }()
	if err := conn.Send(wire.FrontBatchMessage(wire.ProtoConvo, ann.Round, 1, fakeOnions(t, pubs, ann.Round, 1))); err != nil {
		t.Fatal(err)
	}
	// The original record may land before the duplicate kills the pipe,
	// so the round can legitimately count the batch once — what may
	// never happen is the replayed copy reaching the round (it would
	// double the count) or the pipe surviving.
	res := <-done
	if res.err != nil {
		t.Fatalf("round during replay must complete, got %v", res.err)
	}
	if res.n > 1 {
		t.Fatalf("replayed batch was double-counted: %d participants", res.n)
	}
	// The pipe must die, normally ErrAuth-classed. EOF is also legal
	// here: when the accepted original's replies are mid-flight on the
	// coordinator's write loop at the moment the duplicate fails
	// authentication, the fatal alert is skipped (it is best-effort by
	// design — fail() only TryLocks the write path) and the frontend
	// sees the close instead.
	if err := <-errc; err == nil {
		t.Fatal("pipe survived a replayed record")
	} else if !errors.Is(err, transport.ErrAuth) && !errors.Is(err, io.EOF) {
		t.Fatalf("poisoned pipe failed with %v, want ErrAuth or EOF", err)
	}
}

// TestFrontPipeMITMSwapPoisonsFrontend: reordering the coordinator's
// records (announces / KindFrontReplies) fails authentication on the
// frontend side at the first out-of-order record — a frontend can
// never act on a stale replayed reply set.
func TestFrontPipeMITMSwapPoisonsFrontend(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	var held []byte
	mitm.Intercept("entry-front", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if !armed.Load() || dir != transport.ServerToClient || index == 0 {
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
	co, pubs, frontPub := frontRig(t, mem)
	conn := frontPipe(t, mitm, frontPub)
	waitFrontends(t, co, 1)

	done := runConvoAsync(co)
	ann := recvAnnounce(t, conn)
	if err := conn.Send(wire.FrontBatchMessage(wire.ProtoConvo, ann.Round, 1, fakeOnions(t, pubs, ann.Round, 1))); err != nil {
		t.Fatal(err)
	}
	if res := <-done; res.err != nil || res.n != 1 {
		t.Fatalf("healthy round: n=%d err=%v", res.n, res.err)
	}

	// Hold the next announce; the round times out without the pipe's
	// batch. Releasing it behind the following round's announce delivers
	// the two records out of order.
	armed.Store(true)
	if res := <-runConvoAsync(co); res.err != nil || res.n != 0 {
		t.Fatalf("held-announce round: n=%d err=%v", res.n, res.err)
	}
	done = runConvoAsync(co)
	if err := recvUntilErr(conn); !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("reordered pipe stream failed with %v, want ErrAuth", err)
	}
	if res := <-done; res.err != nil {
		t.Fatalf("round during swap must complete without the pipe, got %v", res.err)
	}
}

// TestFrontPipeMITMImpersonatedCoordinator: a listener without the
// coordinator's frontend-pipe key cannot complete the handshake — no
// batch ever crosses an impersonated pipe.
func TestFrontPipeMITMImpersonatedCoordinator(t *testing.T) {
	mem := transport.NewMem()
	frontPub, _ := box.KeyPairFromSeed([]byte("real-front-pipe-key"))
	_, wrongPriv := box.KeyPairFromSeed([]byte("pipe-impostor"))

	l, err := mem.Listen("entry-front")
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

	raw, err := mem.Dial("entry-front")
	if err != nil {
		t.Fatal(err)
	}
	_, priv := box.KeyPairFromSeed([]byte("test-frontend"))
	sec := transport.SecureClient(raw, priv, frontPub)
	defer sec.Close()
	// The frontend's hello is sealed to the real coordinator key, so the
	// impostor fails authentication; the frontend sees the abort (no
	// session key exists yet, so no authenticated alert is possible).
	if err := sec.Handshake(); err == nil {
		t.Fatal("handshake with impersonated coordinator succeeded")
	}
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("impostor completed the pipe handshake")
		}
		if !errors.Is(err, transport.ErrAuth) {
			t.Fatalf("impostor handshake failed with %v, want ErrAuth", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("impostor never saw a connection")
	}
}

// TestFrontPipeMITMCrashControl is the other half of
// attack-vs-outage distinguishability: when the coordinator merely
// dies, the pipe fails with a plain connection error, not ErrAuth — so
// ErrAuth on this leg always means an active attack.
func TestFrontPipeMITMCrashControl(t *testing.T) {
	mem := transport.NewMem()
	co, _, frontPub := frontRig(t, mem)
	conn := frontPipe(t, mem, frontPub)
	waitFrontends(t, co, 1)

	co.Close()
	if err := recvUntilErr(conn); errors.Is(err, transport.ErrAuth) {
		t.Fatalf("crashed coordinator reported as ErrAuth: %v — outages must stay distinguishable from attacks", err)
	}
}

// TestFrontPipeMITMTamperRecovery runs a real frontend process through
// the tap: one tampered round poisons its pipe and costs its clients
// the round, and once the attack stops the frontend's reconnect brings
// the next round back — the attack window is the attack's duration.
func TestFrontPipeMITMTamperRecovery(t *testing.T) {
	mem := transport.NewMem()
	mitm := transport.NewMITM(mem)
	var armed atomic.Bool
	mitm.Intercept("entry-front", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			rec[len(rec)/2] ^= 0x01
		}
		return [][]byte{rec}
	})
	co, pubs, frontPub := frontRig(t, mem)

	fe, err := frontend.New(frontend.Config{
		Net:       mitm,
		CoordAddr: "entry-front",
		CoordPub:  frontPub,
	})
	if err != nil {
		t.Fatal(err)
	}
	fl, err := mem.Listen("front-0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(fl)
	ctx, cancel := context.WithCancel(context.Background())
	go fe.Run(ctx)
	t.Cleanup(func() {
		cancel()
		fl.Close()
		fe.Close()
	})

	// One client behind the frontend, answering every announce.
	raw, err := mem.Dial("front-0")
	if err != nil {
		t.Fatal(err)
	}
	cl := wire.NewConn(raw)
	t.Cleanup(func() { cl.Close() })
	go func() {
		for {
			msg, err := cl.Recv()
			if err != nil {
				return
			}
			if msg.Kind != wire.KindAnnounce || msg.Proto != wire.ProtoConvo {
				continue
			}
			req, err := convo.BuildRequest(nil, msg.Round, nil, nil)
			if err != nil {
				return
			}
			o, _, err := onion.Wrap(req.Marshal(), msg.Round, 0, pubs, nil)
			if err != nil {
				return
			}
			if err := cl.Send(&wire.Message{
				Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: msg.Round, Body: [][]byte{o},
			}); err != nil {
				return
			}
		}
	}()

	waitFrontends(t, co, 1)
	deadline := time.Now().Add(2 * time.Second)
	for fe.NumClients() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("client never registered with the frontend")
		}
		time.Sleep(time.Millisecond)
	}

	if res := <-runConvoAsync(co); res.err != nil || res.n != 1 {
		t.Fatalf("healthy round: n=%d err=%v", res.n, res.err)
	}

	armed.Store(true)
	if res := <-runConvoAsync(co); res.err != nil || res.n != 0 {
		t.Fatalf("attacked round: n=%d err=%v, want 0 participants", res.n, res.err)
	}
	armed.Store(false)

	// The frontend notices the poisoned pipe and redials on its own.
	waitFrontends(t, co, 1)
	if res := <-runConvoAsync(co); res.err != nil || res.n != 1 {
		t.Fatalf("round after attack stopped: n=%d err=%v", res.n, res.err)
	}
}

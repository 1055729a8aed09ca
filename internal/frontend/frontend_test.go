package frontend_test

// Integration tests for the split entry tier: a real coordinator with a
// local chain, its frontend-pipe listener, and one or more frontends in
// between the clients and the round clock.

import (
	"context"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/convo"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// tier is a coordinator plus one frontend wired over a shared in-memory
// network.
type tier struct {
	co    *coordinator.Coordinator
	fe    *frontend.Frontend
	chain []box.PublicKey
	net   *transport.Mem
}

func newTier(t *testing.T, feCfg frontend.Config) *tier { return newTierK(t, feCfg, 1) }

// newTierK is newTier with exchanges conversation exchanges per client.
func newTierK(t *testing.T, feCfg frontend.Config, exchanges uint32) *tier {
	t.Helper()
	pubs, privs, err := mixnet.NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewMem()
	_, addrs, stopChain, err := mixnet.StartChain(net, pubs, privs, mixnet.Config{
		ConvoNoise: noise.Fixed{N: 1},
		DialNoise:  noise.Fixed{N: 1},
	}, cdn.NewStore(0))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopChain)
	frontPub, frontPriv, err := box.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	co, err := coordinator.New(coordinator.Config{
		Net: net, ChainAddr: addrs[0], ChainPub: pubs[0],
		SubmitTimeout:  2 * time.Second,
		FrontIdentity:  frontPriv,
		ConvoExchanges: exchanges,
	})
	if err != nil {
		t.Fatal(err)
	}
	le, err := net.Listen("entry")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(le)
	lf, err := net.Listen("entry-front")
	if err != nil {
		t.Fatal(err)
	}
	go co.ServeFrontends(lf)

	feCfg.Net = net
	feCfg.CoordAddr = "entry-front"
	feCfg.CoordPub = frontPub
	if feCfg.ReconnectDelay == 0 {
		feCfg.ReconnectDelay = 50 * time.Millisecond
	}
	fe, err := frontend.New(feCfg)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := net.Listen("fe1")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(lc)
	ctx, cancel := context.WithCancel(context.Background())
	go fe.Run(ctx)

	t.Cleanup(func() {
		cancel()
		fe.Close()
		le.Close()
		lf.Close()
		lc.Close()
		co.Close()
	})

	deadline := time.Now().Add(3 * time.Second)
	for co.NumFrontends() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("frontend pipe never connected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return &tier{co: co, fe: fe, chain: pubs, net: net}
}

// dialClient connects a wire-level client to addr and waits until count
// reports at least want.
func dialClient(t *testing.T, net *transport.Mem, addr string, count func() int, want int) *wire.Conn {
	t.Helper()
	raw, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	t.Cleanup(func() { conn.Close() })
	deadline := time.Now().Add(2 * time.Second)
	for count() < want {
		if time.Now().After(deadline) {
			t.Fatalf("registration timed out at %d", want)
		}
		time.Sleep(time.Millisecond)
	}
	return conn
}

func convoOnions(t *testing.T, chain []box.PublicKey, round uint64, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		req, err := convo.BuildRequest(nil, round, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, _, err := onion.Wrap(req.Marshal(), round, 0, chain, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = o
	}
	return out
}

// answer replies to the next announce on conn with one valid onion and
// returns the announcement.
func answer(t *testing.T, conn *wire.Conn, chain []box.PublicKey) *wire.Message {
	t.Helper()
	ann, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ann.Kind != wire.KindAnnounce {
		t.Fatalf("expected announce, got kind %d", ann.Kind)
	}
	onions := convoOnions(t, chain, ann.Round, 1)
	if err := conn.Send(&wire.Message{Kind: wire.KindSubmit, Proto: ann.Proto, Round: ann.Round, Body: onions}); err != nil {
		t.Fatal(err)
	}
	return ann
}

// TestFrontendRoundTrip: clients behind a frontend and a direct client
// complete a conversation round together; every client gets exactly its
// reply slice, and the relayed announcement is indistinguishable from a
// direct one (no budget hint leaks).
func TestFrontendRoundTrip(t *testing.T) {
	tr := newTier(t, frontend.Config{})
	f1 := dialClient(t, tr.net, "fe1", tr.fe.NumClients, 1)
	f2 := dialClient(t, tr.net, "fe1", tr.fe.NumClients, 2)
	direct := dialClient(t, tr.net, "entry", tr.co.NumClients, 1)

	done := make(chan int, 1)
	go func() {
		_, n, err := tr.co.RunConvoRound(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()

	var round uint64
	for _, c := range []*wire.Conn{f1, f2, direct} {
		ann := answer(t, c, tr.chain)
		if ann.Bucket != 0 {
			t.Fatalf("client-facing announce leaked Bucket=%d", ann.Bucket)
		}
		round = ann.Round
	}
	if n := <-done; n != 3 {
		t.Fatalf("participants = %d, want 3 (2 behind frontend + 1 direct)", n)
	}
	for name, c := range map[string]*wire.Conn{"f1": f1, "f2": f2, "direct": direct} {
		reply, err := c.Recv()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reply.Kind != wire.KindReply || reply.Proto != wire.ProtoConvo || reply.Round != round || len(reply.Body) != 1 {
			t.Fatalf("%s reply: %+v", name, reply)
		}
	}
}

// TestFrontendDialRound: the dial acknowledgement fans out through the
// frontend with the bucket count intact.
func TestFrontendDialRound(t *testing.T) {
	tr := newTier(t, frontend.Config{})
	f1 := dialClient(t, tr.net, "fe1", tr.fe.NumClients, 1)

	done := make(chan int, 1)
	go func() {
		_, n, err := tr.co.RunDialRound(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()
	ann, err := f1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ann.Proto != wire.ProtoDial {
		t.Fatalf("announce proto = %d", ann.Proto)
	}
	pub, _, err := box.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := dial.BuildRequest(&pub, nil, ann.M, nil)
	if err != nil {
		t.Fatal(err)
	}
	o, _, err := onion.Wrap(req.Marshal(), ann.Round, 0, tr.chain, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoDial, Round: ann.Round, Body: [][]byte{o}}); err != nil {
		t.Fatal(err)
	}
	if n := <-done; n != 1 {
		t.Fatalf("participants = %d", n)
	}
	ack, err := f1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack.Kind != wire.KindReply || ack.Proto != wire.ProtoDial || ack.Round != ann.Round || ack.M != ann.M {
		t.Fatalf("dial ack: %+v", ack)
	}
}

// TestFrontendEmptyBatchClosesEarly: an idle frontend answers each
// announcement with an empty batch immediately, so a round with only
// direct participants still closes as soon as they submit instead of
// waiting out the submit timeout on the idle frontend.
func TestFrontendEmptyBatchClosesEarly(t *testing.T) {
	tr := newTier(t, frontend.Config{})
	direct := dialClient(t, tr.net, "entry", tr.co.NumClients, 1)

	start := time.Now()
	done := make(chan int, 1)
	go func() {
		_, n, _ := tr.co.RunConvoRound(context.Background())
		done <- n
	}()
	answer(t, direct, tr.chain)
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("participants = %d", n)
		}
	case <-time.After(1500 * time.Millisecond):
		t.Fatal("round waited on an idle frontend")
	}
	if elapsed := time.Since(start); elapsed >= 1500*time.Millisecond {
		t.Fatalf("round took %v with an idle frontend", elapsed)
	}
}

// TestFrontendChurnClosesEarly: a frontend client disconnecting
// mid-round shrinks the partial batch, and the whole round still closes
// early once the remaining clients submit.
func TestFrontendChurnClosesEarly(t *testing.T) {
	tr := newTier(t, frontend.Config{})
	f1 := dialClient(t, tr.net, "fe1", tr.fe.NumClients, 1)
	f2 := dialClient(t, tr.net, "fe1", tr.fe.NumClients, 2)

	start := time.Now()
	done := make(chan int, 1)
	go func() {
		_, n, _ := tr.co.RunConvoRound(context.Background())
		done <- n
	}()
	ann := answer(t, f1, tr.chain)
	if _, err := f2.Recv(); err != nil {
		t.Fatal(err)
	}
	f2.Close() // churns out after the announce, before submitting
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("participants = %d, want 1", n)
		}
	case <-time.After(1500 * time.Millisecond):
		t.Fatal("round did not close early after frontend-client churn")
	}
	if elapsed := time.Since(start); elapsed >= 1500*time.Millisecond {
		t.Fatalf("churned round took %v", elapsed)
	}
	reply, err := f1.Recv()
	if err != nil || reply.Round != ann.Round || len(reply.Body) != 1 {
		t.Fatalf("reply: %+v err=%v", reply, err)
	}
}

// TestFrontendLoadShedding: connections beyond MaxClients are refused
// at accept time.
func TestFrontendLoadShedding(t *testing.T) {
	tr := newTier(t, frontend.Config{MaxClients: 1})
	_ = dialClient(t, tr.net, "fe1", tr.fe.NumClients, 1)

	raw, err := tr.net.Dial("fe1")
	if err != nil {
		t.Fatal(err)
	}
	shed := wire.NewConn(raw)
	defer shed.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := shed.Recv()
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("over-cap client received a message")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("over-cap client was not refused")
	}
	if n := tr.fe.NumClients(); n != 1 {
		t.Fatalf("NumClients = %d after shedding, want 1", n)
	}
}

// TestClientListenerPolicy runs the client-facing rules once per
// listener a client can reach — the coordinator's own (coordinator.Serve)
// and a frontend's (frontend.Serve). Both are the same collector, and a
// client must not be able to tell which one it dialed: a late joiner
// waits for the next round, a malformed submission drops the client, and
// a frame header announcing more than a submission could hold is refused
// before anything is allocated for it.
func TestClientListenerPolicy(t *testing.T) {
	listeners := []struct {
		name, addr string
		count      func(*tier) func() int
	}{
		{"direct", "entry", func(tr *tier) func() int { return tr.co.NumClients }},
		{"frontend", "fe1", func(tr *tier) func() int { return tr.fe.NumClients }},
	}
	submit := func(t *testing.T, c *wire.Conn, tr *tier, round uint64, onions int) {
		t.Helper()
		msg := &wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: round, Body: convoOnions(t, tr.chain, round, onions)}
		if err := c.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	runRound := func(tr *tier) chan int {
		done := make(chan int, 1)
		go func() {
			_, n, _ := tr.co.RunConvoRound(context.Background())
			done <- n
		}()
		return done
	}
	cases := []struct {
		name      string
		exchanges uint32 // 0: one
		run       func(t *testing.T, tr *tier, addr string, count func() int)
	}{
		{"late joiner waits for the next round", 0, func(t *testing.T, tr *tier, addr string, count func() int) {
			a := dialClient(t, tr.net, addr, count, 1)
			b := dialClient(t, tr.net, addr, count, 2)
			done := runRound(tr)
			ann, err := a.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.Recv(); err != nil {
				t.Fatal(err)
			}
			late := dialClient(t, tr.net, addr, count, 3)
			submit(t, late, tr, ann.Round, 1)
			submit(t, a, tr, ann.Round, 1)
			time.Sleep(200 * time.Millisecond)
			select {
			case n := <-done:
				t.Fatalf("round closed with %d participants before member B submitted (late joiner counted toward the snapshot)", n)
			default:
			}
			submit(t, b, tr, ann.Round, 1)
			if n := <-done; n != 2 {
				t.Fatalf("participants = %d, want both snapshot members", n)
			}
			for name, c := range map[string]*wire.Conn{"a": a, "b": b} {
				reply, err := c.Recv()
				if err != nil || reply.Kind != wire.KindReply || reply.Round != ann.Round {
					t.Fatalf("%s reply: %+v err=%v", name, reply, err)
				}
			}
		}},
		{"malformed submission drops the client", 0, func(t *testing.T, tr *tier, addr string, count func() int) {
			c := dialClient(t, tr.net, addr, count, 1)
			done := runRound(tr)
			ann, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			submit(t, c, tr, ann.Round, 2) // two onions where one was announced
			if n := <-done; n != 0 {
				t.Fatalf("malformed submission accepted: %d participants", n)
			}
			if _, err := c.Recv(); err == nil {
				t.Fatal("client connection still alive")
			}
			if n := count(); n != 0 {
				t.Fatalf("%d clients still registered", n)
			}
		}},
		// The frame limit follows the round: 600 exchanges (221 KB here) is
		// what bench/ submits from one connection on a 1-CPU host.
		{"a submission as large as the round asks is accepted", 600, func(t *testing.T, tr *tier, addr string, count func() int) {
			c := dialClient(t, tr.net, addr, count, 1)
			// A fresh tier's first round is 1. The onions are built before
			// it opens: 600 Wraps under the race detector would otherwise
			// be what the submit timeout measures.
			sub := &wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: 1, Body: convoOnions(t, tr.chain, 1, 600)}
			done := runRound(tr)
			ann, err := c.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if ann.Round != sub.Round || int(ann.M) != len(sub.Body) {
				t.Fatalf("announced round %d with %d exchanges, built for round %d with %d", ann.Round, ann.M, sub.Round, len(sub.Body))
			}
			if err := c.Send(sub); err != nil {
				t.Fatal(err)
			}
			if n := <-done; n != 1 {
				t.Fatalf("participants = %d, want the one client", n)
			}
			if reply, err := c.Recv(); err != nil || reply.Kind != wire.KindReply || len(reply.Body) != 600 {
				t.Fatalf("reply: %+v err=%v", reply, err)
			}
		}},
		{"oversized frame header is refused unallocated", 0, func(t *testing.T, tr *tier, addr string, count func() int) {
			raw, err := tr.net.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			// wire.MaxFrameSize itself: within the global cap, so only
			// the client leg's own limit refuses it.
			if _, err := raw.Write([]byte{0x40, 0, 0, 0}); err != nil {
				t.Fatal(err)
			}
			raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("listener kept the connection open waiting for a 1 GiB frame (read: %v)", err)
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
				t.Fatalf("a 4-byte header made the listener allocate %d MiB", grew>>20)
			}
		}},
	}
	for _, tc := range cases {
		for _, l := range listeners {
			t.Run(tc.name+"/"+l.name, func(t *testing.T) {
				tr := newTierK(t, frontend.Config{}, max(tc.exchanges, 1))
				tc.run(t, tr, l.addr, l.count(tr))
			})
		}
	}
}

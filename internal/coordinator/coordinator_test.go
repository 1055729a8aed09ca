package coordinator

import (
	"context"
	"testing"
	"time"

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// rig is a coordinator with a served chain and a raw wire connection posing
// as a client, letting tests exercise protocol-level behavior directly.
type rig struct {
	co    *Coordinator
	chain []box.PublicKey
	store *cdn.Store
	net   *transport.Mem
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	pubs, privs, err := mixnet.NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	store := cdn.NewStore(0)
	net := transport.NewMem()
	_, addrs, stopChain, err := mixnet.StartChain(net, pubs, privs, mixnet.Config{
		ConvoNoise: noise.Fixed{N: 1},
		DialNoise:  noise.Fixed{N: 1},
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopChain)
	cfg.Net, cfg.ChainAddr, cfg.ChainPub = net, addrs[0], pubs[0]
	if cfg.SubmitTimeout == 0 {
		cfg.SubmitTimeout = 300 * time.Millisecond
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("entry")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(l)
	t.Cleanup(func() { l.Close(); co.Close() })
	return &rig{co: co, chain: pubs, store: store, net: net}
}

// rawClient connects a wire-level client and waits for registration.
func (r *rig) rawClient(t *testing.T, want int) *wire.Conn {
	t.Helper()
	raw, err := r.net.Dial("entry")
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	t.Cleanup(func() { conn.Close() })
	deadline := time.Now().Add(2 * time.Second)
	for r.co.NumClients() < want {
		if time.Now().After(deadline) {
			t.Fatalf("registration timed out at %d clients", want)
		}
		time.Sleep(time.Millisecond)
	}
	return conn
}

// fakeOnions builds n indistinguishable conversation onions for a round.
func fakeOnions(t *testing.T, chain []box.PublicKey, round uint64, n int) [][]byte {
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

// TestEmptyRound: a round with no clients completes without error.
func TestEmptyRound(t *testing.T) {
	r := newRig(t, Config{})
	round, n, err := r.co.RunConvoRound(context.Background())
	if err != nil || round != 1 || n != 0 {
		t.Fatalf("round=%d n=%d err=%v", round, n, err)
	}
	// Dial round too.
	if _, n, err := r.co.RunDialRound(context.Background()); err != nil || n != 0 {
		t.Fatalf("dial n=%d err=%v", n, err)
	}
}

// TestStragglerTimeout: a client that never submits does not wedge the
// round; the submitting client still gets its reply.
func TestStragglerTimeout(t *testing.T) {
	r := newRig(t, Config{SubmitTimeout: 200 * time.Millisecond})
	good := r.rawClient(t, 1)
	_ = r.rawClient(t, 2) // never submits

	done := make(chan error, 1)
	go func() {
		_, n, err := r.co.RunConvoRound(context.Background())
		if err == nil && n != 1 {
			t.Errorf("participants = %d, want 1", n)
		}
		done <- err
	}()

	ann, err := good.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ann.Kind != wire.KindAnnounce {
		t.Fatalf("expected announce, got %d", ann.Kind)
	}
	onions := fakeOnions(t, r.chain, ann.Round, 1)
	if err := good.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	reply, err := good.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Kind != wire.KindReply || len(reply.Body) != 1 {
		t.Fatalf("bad reply: %+v", reply)
	}
}

// TestWrongExchangeCountRejected: with ConvoExchanges=2, a single-onion
// submission is dropped (treated as a straggler).
func TestWrongExchangeCountRejected(t *testing.T) {
	r := newRig(t, Config{ConvoExchanges: 2, SubmitTimeout: 200 * time.Millisecond})
	c := r.rawClient(t, 1)

	done := make(chan int, 1)
	go func() {
		_, n, _ := r.co.RunConvoRound(context.Background())
		done <- n
	}()
	ann, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ann.M != 2 {
		t.Fatalf("announce M = %d, want 2 exchanges", ann.M)
	}
	// Submit only one onion: wrong count.
	onions := fakeOnions(t, r.chain, ann.Round, 1)
	c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions})
	if n := <-done; n != 0 {
		t.Fatalf("malformed submission accepted: %d participants", n)
	}
}

// TestMultiExchangeRound: a client submitting the announced number of
// onions gets that many replies back.
func TestMultiExchangeRound(t *testing.T) {
	r := newRig(t, Config{ConvoExchanges: 3})
	c := r.rawClient(t, 1)

	done := make(chan error, 1)
	go func() {
		_, n, err := r.co.RunConvoRound(context.Background())
		if err == nil && n != 1 {
			t.Errorf("participants = %d", n)
		}
		done <- err
	}()
	ann, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	onions := fakeOnions(t, r.chain, ann.Round, int(ann.M))
	c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions})
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Body) != 3 {
		t.Fatalf("got %d replies, want 3", len(reply.Body))
	}
}

// TestDuplicateSubmissionIgnored: a client cannot submit twice in one
// round (one fixed-size request per round, §3.2).
func TestDuplicateSubmissionIgnored(t *testing.T) {
	r := newRig(t, Config{SubmitTimeout: 300 * time.Millisecond})
	c := r.rawClient(t, 1)

	done := make(chan int, 1)
	go func() {
		_, n, _ := r.co.RunConvoRound(context.Background())
		done <- n
	}()
	ann, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		onions := fakeOnions(t, r.chain, ann.Round, 1)
		c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions})
	}
	if n := <-done; n != 1 {
		t.Fatalf("participants = %d, want 1 (duplicate must be ignored)", n)
	}
	// Exactly one reply comes back.
	if reply, err := c.Recv(); err != nil || reply.Kind != wire.KindReply {
		t.Fatalf("reply: %+v err=%v", reply, err)
	}
}

// TestLateSubmissionDropped: submitting for a closed round is ignored and
// does not crash later rounds.
func TestLateSubmissionDropped(t *testing.T) {
	r := newRig(t, Config{SubmitTimeout: 100 * time.Millisecond})
	c := r.rawClient(t, 1)

	// Round 1 times out without submissions.
	if _, n, err := r.co.RunConvoRound(context.Background()); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	ann, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	// Late submission for round 1.
	onions := fakeOnions(t, r.chain, ann.Round, 1)
	c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions})
	time.Sleep(50 * time.Millisecond)

	// Round 2 proceeds normally.
	done := make(chan int, 1)
	go func() {
		_, n, _ := r.co.RunConvoRound(context.Background())
		done <- n
	}()
	ann2, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ann2.Round != ann.Round+1 {
		t.Fatalf("round %d after %d", ann2.Round, ann.Round)
	}
	onions2 := fakeOnions(t, r.chain, ann2.Round, 1)
	c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann2.Round, Body: onions2})
	if n := <-done; n != 1 {
		t.Fatalf("round 2 participants = %d", n)
	}
}

// TestDialAnnouncesDialBuckets: every dialing round announces the
// configured bucket count m (chain.json's dial_buckets), whatever the
// number of connected clients.
func TestDialAnnouncesDialBuckets(t *testing.T) {
	r := newRig(t, Config{DialBuckets: 4, SubmitTimeout: 150 * time.Millisecond})
	conns := make([]*wire.Conn, 6)
	for i := range conns {
		conns[i] = r.rawClient(t, i+1)
	}
	go r.co.RunDialRound(context.Background())
	ann, err := conns[0].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ann.Proto != wire.ProtoDial || ann.M != 4 {
		t.Fatalf("dial announce: proto %d, m = %d, want proto %d, m = 4", ann.Proto, ann.M, wire.ProtoDial)
	}
}

// TestContextCancellation: a cancelled context aborts a waiting round.
func TestContextCancellation(t *testing.T) {
	r := newRig(t, Config{SubmitTimeout: 10 * time.Second})
	_ = r.rawClient(t, 1) // connected but silent
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := r.co.RunConvoRound(ctx)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled round returned no error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("round did not abort on cancellation")
	}
}

// TestNewValidation covers configuration errors.
func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("coordinator without chain accepted")
	}
	// A networked chain without the head's public key would force a
	// plaintext (or unauthenticated) entry leg; New must refuse.
	if _, err := New(Config{Net: transport.NewMem(), ChainAddr: "chain"}); err == nil {
		t.Fatal("networked coordinator without ChainPub accepted")
	}
}

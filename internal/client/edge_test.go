package client

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// TestClientWithoutCDN: a client configured without a CDN address still
// participates in dialing rounds (sending no-ops) and gets the round
// event, just no invitation scan — the degraded mode a restricted
// deployment might run.
func TestClientWithoutCDN(t *testing.T) {
	net := transport.NewMem()
	pubs, privs, err := mixnet.NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	_, addrs, stopChain, err := mixnet.StartChain(net, pubs, privs, mixnet.Config{
		DialNoise: noise.Fixed{N: 1},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stopChain()
	co, err := coordinator.New(coordinator.Config{
		Net: net, ChainAddr: addrs[0], ChainPub: pubs[0],
		SubmitTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("entry")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(l)
	defer func() { l.Close(); co.Close() }()

	pub, priv := box.KeyPairFromSeed([]byte("loner"))
	c, err := Dial(Config{
		Pub: pub, Priv: priv,
		ChainPubs: pubs,
		Net:       net,
		EntryAddr: "entry",
		// No CDNAddr.
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for co.NumClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("registration timed out")
		}
		time.Sleep(time.Millisecond)
	}

	if _, n, err := co.RunDialRound(context.Background()); err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	waitEvent(t, c, 2*time.Second, func(e Event) bool {
		_, ok := e.(DialRoundEvent)
		return ok
	})
}

// TestEventOverflowDoesNotBlock: a client whose application never drains
// events keeps participating in rounds (events are dropped, not queued
// unboundedly — missing the submission window would be worse).
func TestEventOverflowDoesNotBlock(t *testing.T) {
	tn := newTestNet(t)
	pub, priv := box.KeyPairFromSeed([]byte("deaf"))
	c, err := Dial(Config{
		Pub: pub, Priv: priv,
		ChainPubs: tn.chain,
		Net:       tn.net,
		EntryAddr: "entry",
		CDNAddr:   "cdn",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Fill the buffer, so every event of the rounds below overflows it.
	for len(c.events) < cap(c.events) {
		c.emit(ConvoRoundEvent{})
	}
	deadline := time.Now().Add(2 * time.Second)
	for tn.co.NumClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("registration timed out")
		}
		time.Sleep(time.Millisecond)
	}

	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, n, err := tn.co.RunConvoRound(ctx); err != nil || n != 1 {
			t.Fatalf("round %d: n=%d err=%v", i, n, err)
		}
	}
}

// TestFetchAfterCloseDialsNothing: a dialing round's bucket fetch that
// runs after Close — its acknowledgement was read just before — must not
// open a CDN connection, which nothing would ever close.
func TestFetchAfterCloseDialsNothing(t *testing.T) {
	tn := newTestNet(t)
	c := tn.dialClient(t, "late-fetch", 1)
	c.Close()
	if _, err := c.fetchBucket(1, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("fetch after Close: %v, want ErrClosed", err)
	}
	if c.cdnConn != nil {
		t.Fatal("fetch after Close left a CDN connection open")
	}
}

// TestGoBackNWindowFull: queueing far more messages than the window
// delivers them all, in order, across successive rounds.
func TestGoBackNWindowFull(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	bob := tn.dialClient(t, "bob", 2)
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())

	const total = 10 // > sendWindow = 4
	want := make([]string, total)
	for i := range want {
		want[i] = string(rune('a' + i))
		if err := alice.Send(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var got []string
	// Go-back-N delivers ≤1 message per round; allow slack rounds for
	// ack latency.
	for round := 0; round < total+6 && len(got) < total; round++ {
		if _, _, err := tn.co.RunConvoRound(ctx); err != nil {
			t.Fatal(err)
		}
		drain := true
		for drain {
			select {
			case e := <-bob.Events():
				if m, ok := e.(MessageEvent); ok {
					got = append(got, m.Text)
				}
			case <-time.After(200 * time.Millisecond):
				drain = false
			}
		}
	}
	if len(got) != total {
		t.Fatalf("delivered %d of %d: %v", len(got), total, got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
	if alice.QueueLen() > 0 {
		// Queue may still hold entries if the final acks haven't made a
		// full trip; run a couple of ack rounds.
		for i := 0; i < 3 && alice.QueueLen() > 0; i++ {
			tn.co.RunConvoRound(ctx)
			time.Sleep(50 * time.Millisecond)
		}
	}
	if n := alice.QueueLen(); n != 0 {
		t.Fatalf("queue not drained: %d", n)
	}
}

// seededStream is a fixed byte stream, so that the two onion builders
// below draw the same keys.
type seededStream struct{ pos int }

func (r *seededStream) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte((r.pos+i)*13 + 5)
	}
	r.pos += len(p)
	return len(p), nil
}

// TestClientOnionMatchesWrap: a client builds its onions on the chain
// parsed once at Dial (onion.NewPath + Seal, each layer on the keys'
// tables); under one seeded stream they are onion.Wrap's bytes, and the
// reply keys are Wrap's too.
func TestClientOnionMatchesWrap(t *testing.T) {
	pubs, _, err := mixnet.NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := box.NewPeers(pubs)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{chain: chain}
	payload := bytes.Repeat([]byte("request "), 34)
	const round = 77
	got, gotKeys, err := c.wrap(payload, round, &seededStream{})
	if err != nil {
		t.Fatal(err)
	}
	want, wantKeys, err := onion.Wrap(payload, round, 0, pubs, &seededStream{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("client onion differs from onion.Wrap's:\n got %x\nwant %x", got, want)
	}
	for i := range wantKeys {
		if *gotKeys[i] != *wantKeys[i] {
			t.Fatalf("layer %d: reply keys differ", i)
		}
	}
}

// TestRedialUntilClose: when the entry drops a connection that carried a
// message the client reports it and dials the same address again at once;
// an entry that accepts and closes at once is redialed on the doubling
// backoff, not in a busy loop; while the entry stays down the client keeps
// redialing, and Close still returns promptly, with the client's loop
// gone.
func TestRedialUntilClose(t *testing.T) {
	mem := transport.NewMem()
	l, err := mem.Listen("entry")
	if err != nil {
		t.Fatal(err)
	}
	// Mem's Dial returns only once the listener accepts, so each accepted
	// connection is one dial of the client's.
	accepted := make(chan net.Conn, 2)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	pubs, _, err := mixnet.NewChainKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(Config{ChainPubs: pubs, Net: mem, EntryAddr: "entry"})
	if err != nil {
		t.Fatal(err)
	}
	dropped := func() {
		t.Helper()
		select {
		case e := <-c.Events():
			if _, ok := e.(ErrorEvent); !ok {
				t.Fatalf("event %T, want an ErrorEvent for the lost connection", e)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the lost connection was not reported")
		}
	}

	redialed := func() (net.Conn, time.Time) {
		t.Helper()
		select {
		case conn := <-accepted:
			return conn, time.Now()
		case <-time.After(2 * time.Second):
			t.Fatal("the client did not redial")
			return nil, time.Time{}
		}
	}

	// A connection that carried a message (one the client ignores) drops.
	first := <-accepted
	if err := wire.NewConn(first).Send(&wire.Message{Kind: wire.KindError}); err != nil {
		t.Fatal(err)
	}
	first.Close()
	dropped()

	// The entry now accepts and closes at once, as a full frontend sheds a
	// client: the k-th such close is followed by a wait of redialMin·2^(k-1).
	conn, at := redialed()
	for k := 1; k <= 5; k++ {
		conn.Close()
		prev := at
		conn, at = redialed()
		if gap, want := at.Sub(prev), redialMin<<(k-1); gap < want {
			t.Fatalf("redial %d after a connection that carried nothing came after %v, want at least %v", k, gap, want)
		}
	}

	// The entry goes down for good: every redial now fails.
	l.Close()
	conn.Close()
	dropped()
	// Let a few redials fail, so Close most likely lands in a backoff wait.
	time.Sleep(100 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung while the client was redialing")
	}
	// Events holds the losses not read above, then must be closed.
	for n := 0; ; n++ {
		if _, open := <-c.Events(); !open {
			break
		}
		if n == eventBuf {
			t.Fatal("events still open after Close: the client's loop is running")
		}
	}
}

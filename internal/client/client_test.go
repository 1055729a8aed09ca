package client

import (
	"context"
	"testing"
	"time"

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/transport"
)

// testNet assembles a complete in-process deployment: a 3-server chain
// (in-process links), a CDN, and a coordinator serving clients over the
// in-memory network.
type testNet struct {
	net   *transport.Mem
	chain []box.PublicKey
	co    *coordinator.Coordinator
	store *cdn.Store
}

func newTestNet(t *testing.T) *testNet {
	t.Helper()
	net := transport.NewMem()
	pubs, privs, err := mixnet.NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	store := cdn.NewStore(0)
	_, addrs, stopChain, err := mixnet.StartChain(net, pubs, privs, mixnet.Config{
		ConvoNoise: noise.Fixed{N: 3},
		DialNoise:  noise.Fixed{N: 2},
		Workers:    2,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopChain)
	co, err := coordinator.New(coordinator.Config{
		Net: net, ChainAddr: addrs[0], ChainPub: pubs[0],
		DialBuckets:   2,
		SubmitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	entryL, err := net.Listen("entry")
	if err != nil {
		t.Fatal(err)
	}
	go co.Serve(entryL)
	t.Cleanup(func() { entryL.Close(); co.Close() })

	cdnL, err := net.Listen("cdn")
	if err != nil {
		t.Fatal(err)
	}
	go store.Serve(cdnL)
	t.Cleanup(func() { cdnL.Close() })

	return &testNet{net: net, chain: pubs, co: co, store: store}
}

// dialClient connects a named client and waits for the coordinator to
// register it.
func (tn *testNet) dialClient(t *testing.T, name string, want int) *Client {
	t.Helper()
	pub, priv := box.KeyPairFromSeed([]byte(name))
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
	t.Cleanup(func() { c.Close() })
	deadline := time.Now().Add(2 * time.Second)
	for tn.co.NumClients() < want {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never saw %d clients", want)
		}
		time.Sleep(time.Millisecond)
	}
	return c
}

// waitEvent reads events until one matches the predicate or the timeout
// fires.
func waitEvent(t *testing.T, c *Client, timeout time.Duration, match func(Event) bool) Event {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case e := <-c.Events():
			if err, ok := e.(ErrorEvent); ok {
				t.Fatalf("client error: %v", err.Err)
			}
			if match(e) {
				return e
			}
		case <-deadline:
			t.Fatal("timed out waiting for event")
		}
	}
}

func isMessage(text string) func(Event) bool {
	return func(e Event) bool {
		m, ok := e.(MessageEvent)
		return ok && m.Text == text
	}
}

func TestConversationEndToEnd(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	bob := tn.dialClient(t, "bob", 2)

	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := alice.Send("hello bob"); err != nil {
		t.Fatal(err)
	}
	if err := bob.Send("hello alice"); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, n, err := tn.co.RunConvoRound(ctx); err != nil || n != 2 {
		t.Fatalf("round: n=%d err=%v", n, err)
	}

	waitEvent(t, alice, 2*time.Second, isMessage("hello alice"))
	waitEvent(t, bob, 2*time.Second, isMessage("hello bob"))
}

// TestMessageQueueing: messages queued faster than one per round arrive in
// order across rounds.
func TestMessageQueueing(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	bob := tn.dialClient(t, "bob", 2)
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())

	texts := []string{"one", "two", "three"}
	for _, s := range texts {
		if err := alice.Send(s); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var got []string
	for round := 0; round < len(texts); round++ {
		if _, _, err := tn.co.RunConvoRound(ctx); err != nil {
			t.Fatal(err)
		}
		e := waitEvent(t, bob, 2*time.Second, func(e Event) bool {
			_, ok := e.(MessageEvent)
			return ok
		})
		got = append(got, e.(MessageEvent).Text)
	}
	for i := range texts {
		if got[i] != texts[i] {
			t.Fatalf("out of order: got %v", got)
		}
	}
}

// TestRetransmission: Alice sends while Bob is not yet in the
// conversation; once Bob joins, go-back-N retransmission delivers the
// message exactly once.
func TestRetransmission(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	bob := tn.dialClient(t, "bob", 2)
	alice.StartConversation(bob.PublicKey())
	alice.Send("are you there?")

	ctx := context.Background()
	// Two rounds with Bob absent: Alice's message goes unacknowledged.
	for i := 0; i < 2; i++ {
		if _, _, err := tn.co.RunConvoRound(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if alice.QueueLen() != 1 {
		t.Fatalf("in-flight message lost: queue %d", alice.QueueLen())
	}

	// Bob joins; the retransmission lands.
	bob.StartConversation(alice.PublicKey())
	if _, _, err := tn.co.RunConvoRound(ctx); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, bob, 2*time.Second, isMessage("are you there?"))

	// One more round carries Bob's ack back; Alice's queue drains, and
	// Bob must NOT see a duplicate.
	if _, _, err := tn.co.RunConvoRound(ctx); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, alice, 2*time.Second, func(e Event) bool {
		_, ok := e.(ConvoRoundEvent)
		return ok && alice.QueueLen() == 0
	})
	select {
	case e := <-bob.Events():
		if m, ok := e.(MessageEvent); ok {
			t.Fatalf("duplicate delivery: %q", m.Text)
		}
	default:
	}
}

// TestDialingEndToEnd: Alice dials Bob through a dialing round; Bob's
// client downloads its bucket from the CDN and surfaces the invitation;
// they then converse.
func TestDialingEndToEnd(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	bob := tn.dialClient(t, "bob", 2)

	alice.DialUser(bob.PublicKey())
	// The caller preemptively enters the conversation (§3).
	alice.StartConversation(bob.PublicKey())

	ctx := context.Background()
	if _, n, err := tn.co.RunDialRound(ctx); err != nil || n != 2 {
		t.Fatalf("dial round: n=%d err=%v", n, err)
	}

	ev := waitEvent(t, bob, 2*time.Second, func(e Event) bool {
		_, ok := e.(InvitationEvent)
		return ok
	})
	inv := ev.(InvitationEvent)
	if inv.From != alice.PublicKey() {
		t.Fatal("invitation from wrong caller")
	}

	// Bob accepts and they exchange messages.
	bob.StartConversation(inv.From)
	alice.Send("you got my invite!")
	if _, _, err := tn.co.RunConvoRound(ctx); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, bob, 2*time.Second, isMessage("you got my invite!"))
}

// TestIdleClientsParticipate: idle clients still submit (fake) requests
// every round — the cover-traffic requirement of §4.1.
func TestIdleClientsParticipate(t *testing.T) {
	tn := newTestNet(t)
	_ = tn.dialClient(t, "alice", 1)
	_ = tn.dialClient(t, "bob", 2)

	ctx := context.Background()
	_, n, err := tn.co.RunConvoRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d participants, want 2 (idle clients must still send)", n)
	}
	_, n, err = tn.co.RunDialRound(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("%d dial participants, want 2 (idle clients send no-ops)", n)
	}
}

// TestSendWithoutConversation errors.
func TestSendWithoutConversation(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	if err := alice.Send("hello?"); err != ErrNoConversation {
		t.Fatalf("want ErrNoConversation, got %v", err)
	}
	if err := alice.Send(string(make([]byte, MaxTextLen+1))); err == nil {
		t.Fatal("oversized message accepted")
	}
}

// TestClientDisconnectMidStream: a client closing does not wedge
// subsequent rounds for the remaining client.
func TestClientDisconnectMidStream(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	bob := tn.dialClient(t, "bob", 2)
	ctx := context.Background()
	if _, n, err := tn.co.RunConvoRound(ctx); err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	bob.Close()
	deadline := time.Now().Add(2 * time.Second)
	for tn.co.NumClients() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("coordinator did not drop closed client")
		}
		time.Sleep(time.Millisecond)
	}
	if _, n, err := tn.co.RunConvoRound(ctx); err != nil || n != 1 {
		t.Fatalf("after disconnect: n=%d err=%v", n, err)
	}
	waitEvent(t, alice, 2*time.Second, func(e Event) bool {
		_, ok := e.(ConvoRoundEvent)
		return ok
	})
}

// TestFrameRoundTrip covers the reliability frame encoding.
func TestFrameRoundTrip(t *testing.T) {
	f := buildFrame(frameData, 7, 3, []byte("payload"))
	h, text, err := parseFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != frameData || h.Seq != 7 || h.Ack != 3 || string(text) != "payload" {
		t.Fatalf("parsed %+v %q", h, text)
	}
	if _, _, err := parseFrame([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
	if _, _, err := parseFrame(buildFrame(0x7f, 0, 0, nil)); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}

// TestTimerMode exercises the coordinator's timer-driven loop end to end.
func TestTimerMode(t *testing.T) {
	tn := newTestNet(t)
	alice := tn.dialClient(t, "alice", 1)
	bob := tn.dialClient(t, "bob", 2)
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())
	alice.Send("tick")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Start a fast convo timer directly on the coordinator.
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			default:
			}
			tn.co.RunConvoRound(ctx)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	waitEvent(t, bob, 5*time.Second, isMessage("tick"))
}

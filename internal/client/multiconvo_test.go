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

// newMultiNet assembles a deployment with k conversation exchanges per
// round (the §9 multiple-conversations extension).
func newMultiNet(t *testing.T, exchanges uint32) *testNet {
	t.Helper()
	net := transport.NewMem()
	pubs, privs, err := mixnet.NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	store := cdn.NewStore(0)
	_, addrs, stopChain, err := mixnet.StartChain(net, pubs, privs, mixnet.Config{
		ConvoNoise: noise.Fixed{N: 2},
		DialNoise:  noise.Fixed{N: 1},
		Workers:    2,
	}, store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopChain)
	co, err := coordinator.New(coordinator.Config{
		Net: net, ChainAddr: addrs[0], ChainPub: pubs[0],
		ConvoExchanges: exchanges,
		SubmitTimeout:  2 * time.Second,
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

// dialMultiClient connects a client with the given conversation cap.
func (tn *testNet) dialMultiClient(t *testing.T, name string, maxConvos, want int) *Client {
	t.Helper()
	pub, priv := box.KeyPairFromSeed([]byte(name))
	c, err := Dial(Config{
		Pub: pub, Priv: priv,
		ChainPubs:        tn.chain,
		Net:              tn.net,
		EntryAddr:        "entry",
		CDNAddr:          "cdn",
		MaxConversations: maxConvos,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	deadline := time.Now().Add(2 * time.Second)
	for tn.co.NumClients() < want {
		if time.Now().After(deadline) {
			t.Fatalf("registration timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return c
}

// TestTwoConcurrentConversations: Alice talks to Bob and Carol in the
// same rounds, two exchange slots per round.
func TestTwoConcurrentConversations(t *testing.T) {
	tn := newMultiNet(t, 2)
	alice := tn.dialMultiClient(t, "alice", 2, 1)
	bob := tn.dialMultiClient(t, "bob", 2, 2)
	carol := tn.dialMultiClient(t, "carol", 2, 3)

	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := alice.StartConversation(carol.PublicKey()); err != nil {
		t.Fatal(err)
	}
	bob.StartConversation(alice.PublicKey())
	carol.StartConversation(alice.PublicKey())

	if err := alice.SendTo(bob.PublicKey(), "for bob"); err != nil {
		t.Fatal(err)
	}
	if err := alice.SendTo(carol.PublicKey(), "for carol"); err != nil {
		t.Fatal(err)
	}
	bob.Send("from bob")
	carol.Send("from carol")

	if _, n, err := tn.co.RunConvoRound(context.Background()); err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}

	waitEvent(t, bob, 2*time.Second, isMessage("for bob"))
	waitEvent(t, carol, 2*time.Second, isMessage("for carol"))
	got := map[string]bool{}
	for len(got) < 2 {
		e := waitEvent(t, alice, 2*time.Second, func(e Event) bool {
			_, ok := e.(MessageEvent)
			return ok
		})
		got[e.(MessageEvent).Text] = true
	}
	if !got["from bob"] || !got["from carol"] {
		t.Fatalf("alice received %v", got)
	}
}

// TestConversationLimit: the cap is enforced and freeing a slot works.
func TestConversationLimit(t *testing.T) {
	tn := newMultiNet(t, 2)
	alice := tn.dialMultiClient(t, "alice", 2, 1)
	b, _ := box.KeyPairFromSeed([]byte("b"))
	c, _ := box.KeyPairFromSeed([]byte("c"))
	d, _ := box.KeyPairFromSeed([]byte("d"))

	if err := alice.StartConversation(b); err != nil {
		t.Fatal(err)
	}
	if err := alice.StartConversation(c); err != nil {
		t.Fatal(err)
	}
	if err := alice.StartConversation(d); err != ErrTooManyConversations {
		t.Fatalf("want ErrTooManyConversations, got %v", err)
	}
	// Re-activating an existing conversation is not a new slot.
	if err := alice.StartConversation(b); err != nil {
		t.Fatal(err)
	}
	if got := alice.ActivePeers(); len(got) != 2 {
		t.Fatalf("%d active peers", len(got))
	}
	// End one, then d fits.
	alice.EndConversationWith(c)
	if err := alice.StartConversation(d); err != nil {
		t.Fatal(err)
	}
	peers := alice.ActivePeers()
	if len(peers) != 2 || peers[0] != b || peers[1] != d {
		t.Fatalf("active peers %v", peers)
	}
}

// TestSendToInactivePeer errors.
func TestSendToInactivePeer(t *testing.T) {
	tn := newMultiNet(t, 2)
	alice := tn.dialMultiClient(t, "alice", 2, 1)
	stranger, _ := box.KeyPairFromSeed([]byte("stranger"))
	if err := alice.SendTo(stranger, "psst"); err != ErrNoConversation {
		t.Fatalf("want ErrNoConversation, got %v", err)
	}
}

// TestFewerConversationsThanSlots: a client with one active conversation
// in a 3-exchange deployment fills the other slots with fakes — rounds
// still work and the message arrives.
func TestFewerConversationsThanSlots(t *testing.T) {
	tn := newMultiNet(t, 3)
	alice := tn.dialMultiClient(t, "alice", 3, 1)
	bob := tn.dialMultiClient(t, "bob", 3, 2)
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())
	alice.Send("one real slot of three")
	if _, n, err := tn.co.RunConvoRound(context.Background()); err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	waitEvent(t, bob, 2*time.Second, isMessage("one real slot of three"))
}

// TestEndConversationSwitchesCurrent: ending the current conversation
// falls back to another active one.
func TestEndConversationSwitchesCurrent(t *testing.T) {
	tn := newMultiNet(t, 2)
	alice := tn.dialMultiClient(t, "alice", 2, 1)
	b, _ := box.KeyPairFromSeed([]byte("b"))
	c, _ := box.KeyPairFromSeed([]byte("c"))
	alice.StartConversation(b)
	alice.StartConversation(c)
	if p, ok := alice.ActivePeer(); !ok || p != c {
		t.Fatal("current should be c")
	}
	alice.EndConversation() // ends c
	if p, ok := alice.ActivePeer(); !ok || p != b {
		t.Fatal("current should fall back to b")
	}
	alice.EndConversation() // ends b
	if _, ok := alice.ActivePeer(); ok {
		t.Fatal("no conversation should remain")
	}
}

package vuvuzela

import (
	"context"
	"math"
	"testing"
	"time"

	"vuvuzela/internal/sim"
)

func waitFor(t *testing.T, c *Client, timeout time.Duration, match func(Event) bool) Event {
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

// TestQuickstartFlow exercises the package-doc example end to end.
func TestQuickstartFlow(t *testing.T) {
	net, err := NewInProcessNetwork(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	alice, err := net.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}

	if err := alice.StartConversation(bob.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := bob.StartConversation(alice.PublicKey()); err != nil {
		t.Fatal(err)
	}
	if err := alice.Send("hi bob"); err != nil {
		t.Fatal(err)
	}

	if _, n, err := net.RunConvoRound(context.Background()); err != nil || n != 2 {
		t.Fatalf("round: n=%d err=%v", n, err)
	}
	ev := waitFor(t, bob, 2*time.Second, func(e Event) bool {
		_, ok := e.(MessageEvent)
		return ok
	})
	if ev.(MessageEvent).Text != "hi bob" {
		t.Fatalf("bob got %q", ev.(MessageEvent).Text)
	}
}

// TestFullDialAndConverse: the complete dial → invite → accept → chat
// flow through the public API.
func TestFullDialAndConverse(t *testing.T) {
	net, err := NewInProcessNetwork(Options{DialBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()

	alice, err := net.NewClient("alice")
	if err != nil {
		t.Fatal(err)
	}
	bob, err := net.NewClient("bob")
	if err != nil {
		t.Fatal(err)
	}

	alice.DialUser(bob.PublicKey())
	alice.StartConversation(bob.PublicKey())

	ctx := context.Background()
	if _, _, err := net.RunDialRound(ctx); err != nil {
		t.Fatal(err)
	}
	inv := waitFor(t, bob, 2*time.Second, func(e Event) bool {
		_, ok := e.(InvitationEvent)
		return ok
	}).(InvitationEvent)
	if inv.From != alice.PublicKey() {
		t.Fatal("wrong caller")
	}

	bob.StartConversation(inv.From)
	bob.Send("got your call")
	if _, _, err := net.RunConvoRound(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, alice, 2*time.Second, func(e Event) bool {
		m, ok := e.(MessageEvent)
		return ok && m.Text == "got your call"
	})
}

// TestTimerDrivenRounds uses StartRounds. Noise is kept small so a round
// completes quickly even race-instrumented on a small CI box; the timer
// logic under test does not depend on the noise volume.
func TestTimerDrivenRounds(t *testing.T) {
	net, err := NewInProcessNetwork(Options{
		ConvoNoise: &NoiseParams{Mu: 10, B: 3},
		DialNoise:  &NoiseParams{Mu: 5, B: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	alice, _ := net.NewClient("alice")
	bob, _ := net.NewClient("bob")
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())
	alice.Send("ticked")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	net.StartRounds(ctx, 20*time.Millisecond, 0)
	waitFor(t, bob, 5*time.Second, func(e Event) bool {
		m, ok := e.(MessageEvent)
		return ok && m.Text == "ticked"
	})
}

// TestPrivacyFacade checks the re-exported analysis API against the
// paper's headline numbers.
func TestPrivacyFacade(t *testing.T) {
	g := ConvoPrivacyAfter(300000, 13800, 200000)
	if g.Eps > math.Log(2)*1.001 || g.Delta > 1e-4 {
		t.Fatalf("headline guarantee violated: %+v", g)
	}
	d := DialPrivacyAfter(8000, 500, 1200)
	if d.Eps > math.Log(2)*1.05 || d.Delta > 1.1e-4 {
		t.Fatalf("dialing guarantee: %+v", d)
	}

	p, err := PlanConvoNoise(200000, StandardTarget)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's µ=300K supports 250K rounds, so 200K should need less.
	if p.Mu > 300000 || p.Mu < 150000 {
		t.Fatalf("planned µ = %.0f, expected between 150K and 300K", p.Mu)
	}

	if got := PosteriorBelief(0.5, math.Log(2)); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Fatalf("posterior = %v", got)
	}
}

// TestKeyHelpers covers key generation helpers.
func TestKeyHelpers(t *testing.T) {
	p1, s1 := KeyPairFromSeed("carol")
	p2, _ := KeyPairFromSeed("carol")
	if p1 != p2 {
		t.Fatal("seeded keys not deterministic")
	}
	gp, gs, err := GenerateKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	if gp == p1 || gs == s1 {
		t.Fatal("generated keys collide with seeded keys")
	}
}

// TestNetworkCloseStopsEverything: the chain behind a Network is served —
// listeners, accept loops, one handler per hop connection — so Close must
// stop all of it, not only the coordinator: after a conversation and a
// dialing round have dialed every leg, no goroutine outlives Close, and
// the process can stand up another deployment.
func TestNetworkCloseStopsEverything(t *testing.T) {
	defer sim.LeakCheck(t)()
	small := Options{
		ConvoNoise: &NoiseParams{Mu: 3, B: 1},
		DialNoise:  &NoiseParams{Mu: 2, B: 1},
	}
	net, err := NewInProcessNetwork(small)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob"} {
		if _, err := net.NewClient(name); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	if _, n, err := net.RunConvoRound(ctx); err != nil || n != 2 {
		t.Fatalf("convo round: n=%d err=%v", n, err)
	}
	if _, n, err := net.RunDialRound(ctx); err != nil || n != 2 {
		t.Fatalf("dial round: n=%d err=%v", n, err)
	}
	net.Close()

	again, err := NewInProcessNetwork(small)
	if err != nil {
		t.Fatalf("second deployment: %v", err)
	}
	again.Close()
}

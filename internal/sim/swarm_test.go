package sim

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vuvuzela/internal/client"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/transport"
)

// replyLog counts a Swarm's reply callbacks per client and round.
type replyLog struct {
	mu   sync.Mutex
	seen map[int]map[uint64]int
	n    int
}

func (l *replyLog) onReply(client int, round uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[int]map[uint64]int)
	}
	if l.seen[client] == nil {
		l.seen[client] = make(map[uint64]int)
	}
	l.seen[client][round]++
	l.n++
}

func (l *replyLog) count(client int, round uint64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[client][round]
}

func (l *replyLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// waitFor polls cond until it holds or five seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSwarmAnswersEveryAnnouncement: conversing and idle clients alike
// answer conversation and dialing announcements, the conversing pair
// really meets in a dead drop, and each client's reply callback fires
// exactly once per conversation round — and never for a dialing round.
func TestSwarmAnswersEveryAnnouncement(t *testing.T) {
	defer LeakCheck(t)()
	var histMu sync.Mutex
	hist := make(map[uint64][2]int)
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 2, Frontends: 2,
		Chain: mixnet.Config{ConvoObserver: func(round uint64, m1, m2, more int) {
			histMu.Lock()
			hist[round] = [2]int{m1, m2}
			histMu.Unlock()
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	alicePub, alicePriv := box.KeyPairFromSeed([]byte("swarm-alice"))
	bobPub, bobPriv := box.KeyPairFromSeed([]byte("swarm-bob"))
	clients := []SwarmClient{
		{Pub: alicePub, Priv: alicePriv, Peer: &bobPub},
		{Pub: bobPub, Priv: bobPriv, Peer: &alicePub},
		{}, {}, {},
	}
	var replies replyLog
	sw, err := cn.NewSwarm(clients, replies.onReply)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if err := cn.WaitReady(len(clients), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const convoRounds = 3
	for i := 0; i < convoRounds; i++ {
		round, n, err := cn.Coord.RunConvoRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(clients) {
			t.Fatalf("convo round %d: %d participants, want %d", round, n, len(clients))
		}
		histMu.Lock()
		h := hist[round]
		histMu.Unlock()
		if want := [2]int{len(clients) - 2, 1}; h != want {
			t.Fatalf("convo round %d: histogram m1/m2 = %v, want %v (the pair in one drop, the idle clients alone)", round, h, want)
		}
		if i == 0 {
			// A dialing round between conversation rounds, as in production.
			if _, n, err := cn.Coord.RunDialRound(ctx); err != nil || n != len(clients) {
				t.Fatalf("dial round: %d participants (err %v), want %d", n, err, len(clients))
			}
		}
	}

	// Fanout is asynchronous; closing the swarm afterwards orders every
	// callback before the exact-count check.
	waitFor(t, "every reply", func() bool { return replies.total() >= convoRounds*len(clients) })
	sw.Close()
	for c := range clients {
		for r := uint64(1); r <= convoRounds; r++ {
			if got := replies.count(c, r); got != 1 {
				t.Fatalf("client %d saw %d replies for convo round %d, want exactly 1", c, got, r)
			}
		}
	}
	if got := replies.total(); got != convoRounds*len(clients) {
		t.Fatalf("%d reply callbacks, want %d", got, convoRounds*len(clients))
	}
}

// TestSwarmKickedClientRedials: a kicked client comes back on its own and
// counts as a participant again.
func TestSwarmKickedClientRedials(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{Servers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	var replies replyLog
	sw, err := cn.NewSwarm(make([]SwarmClient, 3), replies.onReply)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	if err := cn.WaitReady(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for kick := 0; kick < 3; kick++ {
		sw.Kick(1)
		// The coordinator learns of the dead connection asynchronously, so
		// a round may still race the rejoin and count two; the client is
		// back once a round counts all three again.
		var round uint64
		waitFor(t, "the kicked client to participate again", func() bool {
			if err := cn.WaitReady(3, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			r, n, err := cn.Coord.RunConvoRound(ctx)
			if err != nil {
				t.Fatal(err)
			}
			round = r
			return n == 3
		})
		waitFor(t, "the kicked client's reply", func() bool { return replies.count(1, round) == 1 })
	}
}

// failCountingNet counts refused dials, so a test can wait until a swarm
// is demonstrably redialing.
type failCountingNet struct {
	transport.Network
	failed atomic.Int64
}

func (n *failCountingNet) Dial(addr string) (net.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		n.failed.Add(1)
	}
	return c, err
}

// TestSwarmCloseDuringRedialStorm: with the entry dead every dial fails
// and every client spins in its redial loop; Close must still return
// promptly and leave no goroutine behind. A swarm that cannot make its
// first dials is refused by NewSwarm, with nothing left running.
func TestSwarmCloseDuringRedialStorm(t *testing.T) {
	defer LeakCheck(t)()
	network := &failCountingNet{Network: transport.NewMem()}
	cn, err := NewChainNet(ChainNetConfig{Servers: 1, Net: network})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	const clients = 8
	connected, err := cn.NewSwarm(make([]SwarmClient, clients), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.WaitReady(clients, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cn.Kill(cn.EntryAddr)
	if sw, err := cn.NewSwarm(make([]SwarmClient, clients), nil); err == nil {
		sw.Close()
		t.Fatal("NewSwarm with the entry down succeeded")
	}
	base := network.failed.Load()
	waitFor(t, "the redial storm", func() bool { return network.failed.Load() >= base+10*clients })

	closed := make(chan struct{})
	go func() {
		connected.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close of the swarm hung in the redial storm")
	}
}

// histLog records the last server's dead-drop histogram per round.
type histLog struct {
	mu   sync.Mutex
	hist map[uint64][2]int
}

func (h *histLog) observe(round uint64, m1, m2, more int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.hist == nil {
		h.hist = make(map[uint64][2]int)
	}
	h.hist[round] = [2]int{m1, m2}
}

func (h *histLog) get(round uint64) [2]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hist[round]
}

// conversingPair is a Swarm's Alice and Bob, each the other's peer.
func conversingPair() []SwarmClient {
	alicePub, alicePriv := box.KeyPairFromSeed([]byte("pair-alice"))
	bobPub, bobPriv := box.KeyPairFromSeed([]byte("pair-bob"))
	return []SwarmClient{
		{Pub: alicePub, Priv: alicePriv, Peer: &bobPub},
		{Pub: bobPub, Priv: bobPriv, Peer: &alicePub},
	}
}

// TestRunRoundsTwoExchanges: when the entry announces two exchanges per
// client, every swarm client submits both, directly and through
// frontends, and a conversing pair fills one dead drop twice while its
// second slots, like the idle client's, go out as fakes.
func TestRunRoundsTwoExchanges(t *testing.T) {
	for _, frontends := range []int{0, 2} {
		t.Run(fmt.Sprintf("%d frontends", frontends), func(t *testing.T) {
			defer LeakCheck(t)()
			var hist histLog
			cn, err := NewChainNet(ChainNetConfig{
				Servers: 2, Frontends: frontends,
				Chain: mixnet.Config{ConvoObserver: hist.observe},
				Entry: coordinator.Config{ConvoExchanges: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()
			if _, err := cn.RunRounds(3, 2); err != nil {
				t.Fatal(err)
			}

			sw, err := cn.NewSwarm(append(conversingPair(), SwarmClient{}), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			if err := cn.WaitReady(3, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			round, n, err := cn.Coord.RunConvoRound(context.Background())
			if err != nil || n != 3 {
				t.Fatalf("%d participants (err %v), want 3", n, err)
			}
			if got, want := hist.get(round), [2]int{4, 1}; got != want {
				t.Fatalf("histogram m1/m2 = %v, want %v", got, want)
			}
		})
	}
}

// converse runs conversation rounds until `to` receives text, failing if
// a round does not count `clients` participants or text has not arrived
// after ten rounds.
func converse(t *testing.T, cn *ChainNet, to *client.Client, text string, clients int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for i := 0; i < 10; i++ {
		round, n, err := cn.Coord.RunConvoRound(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != clients {
			t.Fatalf("round %d counted %d participants, want %d", round, n, clients)
		}
		for replied := false; !replied; {
			select {
			case e := <-to.Events():
				switch e := e.(type) {
				case client.MessageEvent:
					if e.Text == text {
						return
					}
				case client.ConvoRoundEvent:
					replied = e.Round == round
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("no reply to round %d", round)
			}
		}
	}
	t.Fatalf("%q did not arrive in ten rounds", text)
}

// TestClientRejoins: a real client comes back on its own — nothing
// redials it but the client — after its entry restarts, after its
// frontend restarts, and after a kick. The entry tier registers it again,
// the rounds count it, and a message sent afterwards is delivered.
func TestClientRejoins(t *testing.T) {
	for _, tc := range []struct {
		name      string
		frontends int
		fault     func(t *testing.T, cn *ChainNet, sw *Swarm)
	}{
		{"entry restart", 0, func(t *testing.T, cn *ChainNet, _ *Swarm) {
			if err := cn.Restart(cn.EntryAddr); err != nil {
				t.Fatal(err)
			}
		}},
		{"frontend restart", 1, func(t *testing.T, cn *ChainNet, _ *Swarm) {
			if err := cn.Restart(cn.FrontAddrs[0]); err != nil {
				t.Fatal(err)
			}
		}},
		{"kick", 0, func(t *testing.T, cn *ChainNet, sw *Swarm) {
			sw.Kick(0)
			// The coordinator learns of the dead connection asynchronously:
			// a round may still count the kicked connection instead of the
			// new one. The client is back once a round counts both.
			waitFor(t, "the kicked client to participate again", func() bool {
				if err := cn.WaitReady(2, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				_, n, err := cn.Coord.RunConvoRound(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return n == 2
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer LeakCheck(t)()
			cn, err := NewChainNet(ChainNetConfig{Servers: 2, Frontends: tc.frontends, StateDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()
			sw, err := cn.NewSwarm(conversingPair(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Close()
			alice, bob := sw.members[0].c, sw.members[1].c

			exchange := func(text string) {
				t.Helper()
				if err := cn.WaitReady(2, 5*time.Second); err != nil {
					t.Fatalf("%s the fault: %v", text, err)
				}
				if err := alice.Send(text); err != nil {
					t.Fatal(err)
				}
				converse(t, cn, bob, text, 2)
			}
			exchange("before")
			tc.fault(t, cn, sw)
			exchange("after")
		})
	}
}

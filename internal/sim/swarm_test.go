package sim

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vuvuzela/internal/convo"
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
	secretA, err := convo.DeriveSecret(&alicePriv, &bobPub)
	if err != nil {
		t.Fatal(err)
	}
	secretB, err := convo.DeriveSecret(&bobPriv, &alicePub)
	if err != nil {
		t.Fatal(err)
	}
	clients := []SwarmClient{
		{Pub: alicePub, Secret: secretA, Msg: []byte("hi bob")},
		{Pub: bobPub, Secret: secretB, Msg: []byte("hi alice")},
		{}, {}, {},
	}
	var replies replyLog
	sw := cn.NewSwarm(clients, replies.onReply)
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
	sw := cn.NewSwarm(make([]SwarmClient, 3), replies.onReply)
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
// promptly and leave no goroutine behind — whether the clients lost a
// connection or never had one.
func TestSwarmCloseDuringRedialStorm(t *testing.T) {
	defer LeakCheck(t)()
	network := &failCountingNet{Network: transport.NewMem()}
	cn, err := NewChainNet(ChainNetConfig{Servers: 1, Net: network})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	const clients = 8
	connected := cn.NewSwarm(make([]SwarmClient, clients), nil)
	if err := cn.WaitReady(clients, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cn.Kill(cn.EntryAddr)
	neverConnected := cn.NewSwarm(make([]SwarmClient, clients), nil)
	base := network.failed.Load()
	waitFor(t, "the redial storm", func() bool { return network.failed.Load() >= base+10*clients })

	for name, sw := range map[string]*Swarm{"connected": connected, "never connected": neverConnected} {
		closed := make(chan struct{})
		go func() {
			sw.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(2 * time.Second):
			t.Fatalf("Close of the %s swarm hung in the redial storm", name)
		}
	}
}

package vuvuzela

// Full-deployment integration tests: the exact wiring the cmd/ binaries
// use — every component on its own TCP listener on loopback — plus
// failure injection across component boundaries.

import (
	"context"
	"net"
	"testing"
	"time"

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/client"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/transport"
)

// tcpDeployment is a complete networked deployment on loopback TCP.
type tcpDeployment struct {
	chain     []box.PublicKey
	co        *coordinator.Coordinator
	entryAddr string
	cdnAddr   string
	listeners []net.Listener
	servers   []*mixnet.Server
}

func newTCPDeployment(t *testing.T, servers int) *tcpDeployment {
	t.Helper()
	var tcp transport.TCP
	pubs, privs, err := mixnet.NewChainKeys(servers)
	if err != nil {
		t.Fatal(err)
	}
	d := &tcpDeployment{chain: pubs}
	store := cdn.NewStore(0)

	// CDN listener.
	cdnL, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	d.cdnAddr = cdnL.Addr().String()
	d.listeners = append(d.listeners, cdnL)
	go mixnet.ServeLoop(cdnL, nil, store.Handle)

	// Chain servers back to front, each on its own TCP port.
	addrs := make([]string, servers)
	for i := servers - 1; i >= 0; i-- {
		l, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		d.listeners = append(d.listeners, l)
		cfg := mixnet.Config{
			Position:   i,
			ChainPubs:  pubs,
			Priv:       privs[i],
			ConvoNoise: noise.Fixed{N: 2},
			DialNoise:  noise.Fixed{N: 1},
			Workers:    2,
			Net:        tcp,
		}
		if i == servers-1 {
			cfg.Buckets = store
		} else {
			cfg.NextAddr = addrs[i+1]
		}
		srv, err := mixnet.NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.servers = append(d.servers, srv)
		go srv.Serve(l)
	}

	// Entry server.
	co, err := coordinator.New(coordinator.Config{
		Net:           tcp,
		ChainAddr:     addrs[0],
		ChainPub:      pubs[0],
		DialBuckets:   2,
		SubmitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.co = co
	entryL, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d.entryAddr = entryL.Addr().String()
	d.listeners = append(d.listeners, entryL)
	go co.Serve(entryL)

	t.Cleanup(func() {
		co.Close()
		for _, s := range d.servers {
			s.Close()
		}
		for _, l := range d.listeners {
			l.Close()
		}
	})
	return d
}

func (d *tcpDeployment) client(t *testing.T, name string, want int) *client.Client {
	t.Helper()
	pub, priv := box.KeyPairFromSeed([]byte(name))
	c, err := client.Dial(client.Config{
		Pub: pub, Priv: priv,
		ChainPubs: d.chain,
		Net:       transport.TCP{},
		EntryAddr: d.entryAddr,
		CDNAddr:   d.cdnAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	deadline := time.Now().Add(3 * time.Second)
	for d.co.NumClients() < want {
		if time.Now().After(deadline) {
			t.Fatal("client registration timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return c
}

func tcpWaitEvent(t *testing.T, c *client.Client, timeout time.Duration, match func(client.Event) bool) client.Event {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case e := <-c.Events():
			if err, ok := e.(client.ErrorEvent); ok {
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

// TestTCPDeploymentEndToEnd runs the full dial-then-converse flow with
// every component behind real TCP sockets — the deployment the cmd/
// binaries assemble.
func TestTCPDeploymentEndToEnd(t *testing.T) {
	d := newTCPDeployment(t, 3)
	alice := d.client(t, "tcp-alice", 1)
	bob := d.client(t, "tcp-bob", 2)

	alice.DialUser(bob.PublicKey())
	alice.StartConversation(bob.PublicKey())

	ctx := context.Background()
	if _, n, err := d.co.RunDialRound(ctx); err != nil || n != 2 {
		t.Fatalf("dial round: n=%d err=%v", n, err)
	}
	inv := tcpWaitEvent(t, bob, 5*time.Second, func(e client.Event) bool {
		_, ok := e.(client.InvitationEvent)
		return ok
	}).(client.InvitationEvent)
	if inv.From != alice.PublicKey() {
		t.Fatal("wrong caller")
	}

	bob.StartConversation(inv.From)
	alice.Send("over real sockets")
	bob.Send("ack over real sockets")
	if _, n, err := d.co.RunConvoRound(ctx); err != nil || n != 2 {
		t.Fatalf("convo round: n=%d err=%v", n, err)
	}
	tcpWaitEvent(t, bob, 5*time.Second, func(e client.Event) bool {
		m, ok := e.(client.MessageEvent)
		return ok && m.Text == "over real sockets"
	})
	tcpWaitEvent(t, alice, 5*time.Second, func(e client.Event) bool {
		m, ok := e.(client.MessageEvent)
		return ok && m.Text == "ack over real sockets"
	})
}

// TestTCPMultipleRounds drives several rounds back-to-back over TCP,
// exercising connection reuse along the chain.
func TestTCPMultipleRounds(t *testing.T) {
	d := newTCPDeployment(t, 2)
	alice := d.client(t, "tcp-alice", 1)
	bob := d.client(t, "tcp-bob", 2)
	alice.StartConversation(bob.PublicKey())
	bob.StartConversation(alice.PublicKey())

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		alice.Send("ping")
		if _, n, err := d.co.RunConvoRound(ctx); err != nil || n != 2 {
			t.Fatalf("round %d: n=%d err=%v", i, n, err)
		}
		tcpWaitEvent(t, bob, 5*time.Second, func(e client.Event) bool {
			m, ok := e.(client.MessageEvent)
			return ok && m.Text == "ping"
		})
	}
}

// TestTCPChainServerUnreachable: if a mid-chain server is down, the round
// fails cleanly (an error, not a hang) and the coordinator survives.
func TestTCPChainServerUnreachable(t *testing.T) {
	d := newTCPDeployment(t, 3)
	_ = d.client(t, "tcp-alice", 1)

	// Kill server 1 (middle) — close its listener and server.
	// listeners[0] is the CDN; chain listeners were appended back to
	// front: [cdn, srv2, srv1, srv0, entry].
	d.listeners[2].Close()
	d.servers[1].Close() // servers appended back to front: [srv2, srv1, srv0]

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, _, err := d.co.RunConvoRound(ctx)
	if err == nil {
		t.Fatal("round succeeded with a dead mid-chain server")
	}
}

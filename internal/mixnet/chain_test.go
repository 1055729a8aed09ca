package mixnet_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/sim"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// lastBuckets keeps the most recently published dialing buckets.
type lastBuckets struct {
	mu sync.Mutex
	b  *dial.Buckets
}

func (s *lastBuckets) Publish(b *dial.Buckets) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = b
}

// TestStartChain: the bare-chain constructor the lower packages' tests
// share builds the production wiring at every length — a
// conversation round entered at the head exchanges a pair's messages and a
// dialing round publishes the invitation, a hop past the head admits
// only its predecessor's key, and stop leaves neither a goroutine nor a
// bound address behind.
func TestStartChain(t *testing.T) {
	for n := 1; n <= 3; n++ {
		t.Run(fmt.Sprintf("servers=%d", n), func(t *testing.T) {
			defer sim.LeakCheck(t)()
			mem := transport.NewMem()
			pubs, privs, err := mixnet.NewChainKeys(n)
			if err != nil {
				t.Fatal(err)
			}
			sink := &lastBuckets{}
			servers, addrs, stop, err := mixnet.StartChain(mem, pubs, privs, mixnet.Config{
				ConvoNoise: noise.Fixed{N: 2},
				DialNoise:  noise.Fixed{N: 1},
			}, sink)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			if len(servers) != n || len(addrs) != n {
				t.Fatalf("%d servers at %d addresses, want %d", len(servers), len(addrs), n)
			}

			const round = 1
			alicePub, alicePriv := box.KeyPairFromSeed([]byte("chain-alice"))
			bobPub, bobPriv := box.KeyPairFromSeed([]byte("chain-bob"))

			// Conversation: both sides of a pair read the other's text.
			type side struct {
				secret *[32]byte
				keys   []*[box.KeySize]byte
				peer   *box.PublicKey
				want   string
			}
			var onions [][]byte
			var sides []side
			for _, c := range []struct {
				pub, peer  *box.PublicKey
				priv       *box.PrivateKey
				says, want string
			}{
				{&alicePub, &bobPub, &alicePriv, "hi bob", "hi alice"},
				{&bobPub, &alicePub, &bobPriv, "hi alice", "hi bob"},
			} {
				secret, err := convo.DeriveSecret(c.priv, c.peer)
				if err != nil {
					t.Fatal(err)
				}
				req, err := convo.BuildRequest(secret, round, c.pub, []byte(c.says))
				if err != nil {
					t.Fatal(err)
				}
				o, keys, err := onion.Wrap(req.Marshal(), round, 0, pubs, nil)
				if err != nil {
					t.Fatal(err)
				}
				onions = append(onions, o)
				sides = append(sides, side{secret, keys, c.peer, c.want})
			}
			replies, err := servers[0].ConvoRound(round, onions)
			if err != nil {
				t.Fatal(err)
			}
			if len(replies) != len(onions) {
				t.Fatalf("%d replies for %d onions", len(replies), len(onions))
			}
			for i, s := range sides {
				inner, err := onion.UnwrapReply(replies[i], round, 0, s.keys)
				if err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				if msg, ok := convo.OpenReply(s.secret, round, s.peer, inner); !ok || string(msg) != s.want {
					t.Fatalf("reply %d: got %q ok=%v, want %q", i, msg, ok, s.want)
				}
			}

			// Dialing: alice's invitation lands in bob's published bucket.
			const m = 2
			req, err := dial.BuildRequest(&alicePub, &bobPub, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			o, _, err := onion.Wrap(req.Marshal(), round, 0, pubs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := servers[0].DialRound(round, m, [][]byte{o}); err != nil {
				t.Fatal(err)
			}
			sink.mu.Lock()
			buckets := sink.b
			sink.mu.Unlock()
			if buckets == nil || buckets.Round != round || buckets.M != m {
				t.Fatalf("published buckets %+v, want round %d with %d buckets", buckets, round, m)
			}
			found := dial.ScanBucket(buckets.Invitations(dial.BucketOf(&bobPub, m)), &bobPub, &bobPriv)
			if len(found) != 1 || found[0].Sender != alicePub {
				t.Fatalf("bob found %d invitations, want alice's one", len(found))
			}

			// The hops are the production wiring, not a shortcut: position 1
			// admits only position 0's key. Its handshake fails with
			// transport.ErrAuth on the accepting side, which tells the dialer
			// nothing — the stranger sees its connection closed, and no
			// frame of its round reaches the server's round counter.
			if n > 1 {
				_, stranger := box.KeyPairFromSeed([]byte("chain-stranger"))
				leg := mixnet.NewChainLeg(mem, addrs[1], stranger, pubs[1])
				_, err := leg.Forward(wire.ProtoConvo, round+1, 0, nil, nil)
				leg.Close()
				var remote *mixnet.RemoteError
				if err == nil || errors.As(err, &remote) || servers[1].LastRound(wire.ProtoConvo) != round {
					t.Fatalf("position 1 let a stranger's round in: err %v, last round %d", err, servers[1].LastRound(wire.ProtoConvo))
				}
			}

			stop()
			for _, addr := range addrs {
				l, err := mem.Listen(addr)
				if err != nil {
					t.Fatalf("address %s still bound after stop: %v", addr, err)
				}
				l.Close()
			}
		})
	}
}

// TestCloseWaitsForNoiseRefill lands Close in the middle of a round and of
// the refill behind it — the successor, played by the test, closes server
// 0 the moment its batch arrives. Close must return only after the refill
// goroutines have exited (they would otherwise burn CPU into whatever
// runs next and outlive the keys they hold), and the round it cut off
// must fail with an error, not hang or panic. The refill is deepened far
// past the round's own 150 paths, so that it is still running when the
// batch arrives however fast paths are agreed.
func TestCloseWaitsForNoiseRefill(t *testing.T) {
	defer sim.LeakCheck(t)()
	mem := transport.NewMem()
	pubs, privs, err := mixnet.NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	first, err := mixnet.NewServer(mixnet.Config{
		Position: 0, ChainPubs: pubs, Priv: privs[0],
		ConvoNoise: noise.Fixed{N: 150},
		Net:        mem, NextAddr: "successor",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	l, err := mem.Listen("successor")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	during, after := make(chan int, 1), make(chan int, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		conn := wire.NewConn(transport.SecureServer(raw, privs[1], []box.PublicKey{pubs[0]}))
		defer conn.Close()
		if _, err := conn.Recv(); err != nil {
			return
		}
		during <- mixnet.RefillsRunning(first)
		first.Close()
		after <- mixnet.RefillsRunning(first)
	}()

	mixnet.DeepenRefill(first, 1<<20)
	if _, err := first.ConvoRound(1, nil); err == nil {
		t.Fatal("a round whose server closed under it reported success")
	}
	if <-during == 0 {
		t.Fatal("no refill was running when the batch reached the successor: Close had nothing to wait for")
	}
	if n := <-after; n != 0 {
		t.Fatalf("Close returned while %d refill goroutine(s) were still running", n)
	}
}

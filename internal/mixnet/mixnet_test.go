package mixnet

import (
	"bytes"
	"sync"
	"testing"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// sink captures published dialing buckets.
type sink struct {
	mu      sync.Mutex
	buckets []*dial.Buckets
}

func (s *sink) Publish(b *dial.Buckets) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buckets = append(s.buckets, b)
}

func (s *sink) last() *dial.Buckets {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buckets) == 0 {
		return nil
	}
	return s.buckets[len(s.buckets)-1]
}

// localChain serves a chain of n servers with the given noise on its own
// in-memory network, stopped when the test ends.
func localChain(t testing.TB, n int, convoNoise, dialNoise noise.Distribution) ([]*Server, []box.PublicKey, *sink) {
	t.Helper()
	pubs, privs, err := NewChainKeys(n)
	if err != nil {
		t.Fatal(err)
	}
	snk := &sink{}
	servers, _, stop, err := StartChain(transport.NewMem(), pubs, privs, Config{
		ConvoNoise: convoNoise,
		DialNoise:  dialNoise,
		Workers:    4,
	}, snk)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return servers, pubs, snk
}

// dialEntry connects to a chain head's entry leg the way the coordinator
// does: a fresh client identity inside transport.Secure, authenticating
// the server's chain-descriptor key.
func dialEntry(t testing.TB, net transport.Network, addr string, serverPub box.PublicKey) *wire.Conn {
	t.Helper()
	raw, err := net.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	_, priv, err := box.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	return wire.NewConn(transport.SecureClient(raw, priv, serverPub))
}

// user is a minimal test client.
type user struct {
	pub  box.PublicKey
	priv box.PrivateKey
}

func newUser(t testing.TB, name string) *user {
	t.Helper()
	pub, priv := box.KeyPairFromSeed([]byte(name))
	return &user{pub: pub, priv: priv}
}

// convoOnion builds a user's onion for a round: a real exchange with peer
// (carrying msg) or a fake request if peer is nil.
func (u *user) convoOnion(t testing.TB, round uint64, chain []box.PublicKey, peer *box.PublicKey, msg []byte) ([]byte, []*[box.KeySize]byte, *[32]byte) {
	t.Helper()
	var secret *[32]byte
	if peer != nil {
		s, err := convo.DeriveSecret(&u.priv, peer)
		if err != nil {
			t.Fatal(err)
		}
		secret = s
	}
	req, err := convo.BuildRequest(secret, round, &u.pub, msg)
	if err != nil {
		t.Fatal(err)
	}
	wireOnion, keys, err := onion.Wrap(req.Marshal(), round, 0, chain, nil)
	if err != nil {
		t.Fatal(err)
	}
	return wireOnion, keys, secret
}

// readReply unwraps a reply and opens the partner's message.
func (u *user) readReply(t testing.TB, round uint64, keys []*[box.KeySize]byte, secret *[32]byte, peer *box.PublicKey, reply []byte) ([]byte, bool) {
	t.Helper()
	innermost, err := onion.UnwrapReply(reply, round, 0, keys)
	if err != nil {
		t.Fatalf("unwrap reply: %v", err)
	}
	return convo.OpenReply(secret, round, peer, innermost)
}

func TestConvoRoundExchange(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4} {
		servers, pubs, _ := localChain(t, n, noise.Fixed{N: 3}, nil)
		alice := newUser(t, "alice")
		bob := newUser(t, "bob")
		carol := newUser(t, "carol") // idle: sends a fake request

		const round = 1
		aOnion, aKeys, aSecret := alice.convoOnion(t, round, pubs, &bob.pub, []byte("hi bob"))
		bOnion, bKeys, bSecret := bob.convoOnion(t, round, pubs, &alice.pub, []byte("hi alice"))
		cOnion, cKeys, _ := carol.convoOnion(t, round, pubs, nil, nil)

		replies, err := servers[0].ConvoRound(round, [][]byte{aOnion, bOnion, cOnion})
		if err != nil {
			t.Fatalf("chain %d: %v", n, err)
		}
		if len(replies) != 3 {
			t.Fatalf("chain %d: %d replies", n, len(replies))
		}

		if msg, ok := alice.readReply(t, round, aKeys, aSecret, &bob.pub, replies[0]); !ok || string(msg) != "hi alice" {
			t.Fatalf("chain %d: alice got %q ok=%v", n, msg, ok)
		}
		if msg, ok := bob.readReply(t, round, bKeys, bSecret, &alice.pub, replies[1]); !ok || string(msg) != "hi bob" {
			t.Fatalf("chain %d: bob got %q ok=%v", n, msg, ok)
		}
		// Carol's reply must unwrap to the zero payload.
		innermost, err := onion.UnwrapReply(replies[2], round, 0, cKeys)
		if err != nil {
			t.Fatalf("chain %d: carol unwrap: %v", n, err)
		}
		if !bytes.Equal(innermost, make([]byte, len(innermost))) {
			t.Fatalf("chain %d: carol's reply not zero", n)
		}
	}
}

// TestConvoOfflinePartner: Alice's partner is absent; she must get a zero
// (non-message) reply, indistinguishable from noise.
func TestConvoOfflinePartner(t *testing.T) {
	servers, pubs, _ := localChain(t, 3, noise.Fixed{N: 2}, nil)
	alice := newUser(t, "alice")
	bob := newUser(t, "bob")
	aOnion, aKeys, aSecret := alice.convoOnion(t, 1, pubs, &bob.pub, []byte("hello?"))
	replies, err := servers[0].ConvoRound(1, [][]byte{aOnion})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := alice.readReply(t, 1, aKeys, aSecret, &bob.pub, replies[0]); ok {
		t.Fatal("alice received a message from an absent partner")
	}
}

// TestConvoMalformedOnion: garbage onions get fixed-size zero replies and
// do not disturb other users.
func TestConvoMalformedOnion(t *testing.T) {
	servers, pubs, _ := localChain(t, 3, noise.Fixed{N: 1}, nil)
	alice := newUser(t, "alice")
	bob := newUser(t, "bob")
	aOnion, aKeys, aSecret := alice.convoOnion(t, 1, pubs, &bob.pub, []byte("m1"))
	bOnion, bKeys, bSecret := bob.convoOnion(t, 1, pubs, &alice.pub, []byte("m2"))
	garbage := bytes.Repeat([]byte{0x5a}, len(aOnion))
	short := []byte{1, 2, 3}

	replies, err := servers[0].ConvoRound(1, [][]byte{garbage, aOnion, short, bOnion})
	if err != nil {
		t.Fatal(err)
	}
	wantSize := convo.SealedSize + box.Overhead*3
	if len(replies[0]) != wantSize || len(replies[2]) != wantSize {
		t.Fatalf("malformed replies sized %d/%d, want %d", len(replies[0]), len(replies[2]), wantSize)
	}
	if msg, ok := alice.readReply(t, 1, aKeys, aSecret, &bob.pub, replies[1]); !ok || string(msg) != "m2" {
		t.Fatalf("alice got %q ok=%v", msg, ok)
	}
	if msg, ok := bob.readReply(t, 1, bKeys, bSecret, &alice.pub, replies[3]); !ok || string(msg) != "m1" {
		t.Fatalf("bob got %q ok=%v", msg, ok)
	}
}

// TestRoundReplayRejected: processing the same round twice fails.
func TestRoundReplayRejected(t *testing.T) {
	servers, pubs, _ := localChain(t, 2, noise.Fixed{N: 0}, nil)
	alice := newUser(t, "alice")
	o, _, _ := alice.convoOnion(t, 5, pubs, nil, nil)
	if _, err := servers[0].ConvoRound(5, [][]byte{o}); err != nil {
		t.Fatal(err)
	}
	if _, err := servers[0].ConvoRound(5, [][]byte{o}); err == nil {
		t.Fatal("round replay accepted")
	}
	if _, err := servers[0].ConvoRound(4, [][]byte{o}); err == nil {
		t.Fatal("old round accepted")
	}
}

// TestNoiseInflatesDownstreamBatch: with Fixed{N} noise, each mixing
// server adds N singles + ⌈N/2⌉ pairs; verify the last server sees the
// right batch size via the exchanged histogram.
func TestNoiseInflatesDownstreamBatch(t *testing.T) {
	servers, pubs, _ := localChain(t, 3, noise.Fixed{N: 4}, nil)
	alice := newUser(t, "alice")
	o, _, _ := alice.convoOnion(t, 1, pubs, nil, nil)
	replies, err := servers[0].ConvoRound(1, [][]byte{o})
	if err != nil {
		t.Fatal(err)
	}
	// Replies to the client: exactly one (noise stripped at each hop).
	if len(replies) != 1 {
		t.Fatalf("%d replies to client, want 1", len(replies))
	}
}

// TestDialRoundEndToEnd: invitations reach their buckets through the
// chain; the recipient finds the caller's invitation; noise is present in
// every bucket.
func TestDialRoundEndToEnd(t *testing.T) {
	servers, pubs, snk := localChain(t, 3, nil, noise.Fixed{N: 2})
	caller := newUser(t, "caller")
	callee := newUser(t, "callee")
	const m = 4
	const round = 1

	req, err := dial.BuildRequest(&caller.pub, &callee.pub, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := dial.BuildRequest(&caller.pub, nil, m, nil)
	if err != nil {
		t.Fatal(err)
	}

	var onions [][]byte
	for _, r := range [][]byte{req.Marshal(), idle.Marshal()} {
		o, _, err := onion.Wrap(r, round, 0, pubs, nil)
		if err != nil {
			t.Fatal(err)
		}
		onions = append(onions, o)
	}

	if err := servers[0].DialRound(round, m, onions); err != nil {
		t.Fatal(err)
	}

	buckets := snk.last()
	if buckets == nil {
		t.Fatal("no buckets published")
	}
	if buckets.M != m || buckets.Round != round {
		t.Fatalf("bucket metadata: %+v", buckets)
	}
	// Noise: 2 mixing servers × Fixed{2} + last server Fixed{2} = 6 per
	// bucket, plus the one real invitation in the callee's bucket.
	target := dial.BucketOf(&callee.pub, m)
	for i := uint32(0); i < m; i++ {
		invs := buckets.Invitations(i)
		want := 6
		if i == target {
			want++
		}
		if len(invs) != want {
			t.Fatalf("bucket %d: %d invitations, want %d", i, len(invs), want)
		}
	}
	found := dial.ScanBucket(buckets.Invitations(target), &callee.pub, &callee.priv)
	if len(found) != 1 || found[0].Sender != caller.pub {
		t.Fatalf("callee found %d invitations", len(found))
	}
}

// TestNetworkedChain runs a full 3-server chain over the in-memory
// network: server 0 ← wire → server 1 ← wire → server 2, driven by a
// client-side RPC to server 0.
func TestNetworkedChain(t *testing.T) {
	net := transport.NewMem()
	pubs, privs, err := NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	snk := &sink{}

	addrs := []string{"chain-0", "chain-1", "chain-2"}
	var servers []*Server
	for i := 2; i >= 0; i-- {
		cfg := Config{
			Position:   i,
			ChainPubs:  pubs,
			Priv:       privs[i],
			ConvoNoise: noise.Fixed{N: 2},
			DialNoise:  noise.Fixed{N: 1},
			Workers:    2,
			Net:        net,
		}
		if i == 2 {
			cfg.Buckets = snk
		} else {
			cfg.NextAddr = addrs[i+1]
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		defer l.Close()
		defer srv.Close()
		servers = append(servers, srv)
	}

	alice := newUser(t, "alice")
	bob := newUser(t, "bob")
	const round = 1
	aOnion, aKeys, aSecret := alice.convoOnion(t, round, pubs, &bob.pub, []byte("over the wire"))
	bOnion, bKeys, bSecret := bob.convoOnion(t, round, pubs, &alice.pub, []byte("loud and clear"))

	// Drive the round like the entry server would: RPC to server 0 over
	// the authenticated entry leg.
	conn := dialEntry(t, net, addrs[0], pubs[0])
	defer conn.Close()
	if err := conn.Send(&wire.Message{
		Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: round,
		Body: [][]byte{aOnion, bOnion},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != wire.KindReplies || len(resp.Body) != 2 {
		t.Fatalf("bad response: %+v", resp)
	}
	if msg, ok := alice.readReply(t, round, aKeys, aSecret, &bob.pub, resp.Body[0]); !ok || string(msg) != "loud and clear" {
		t.Fatalf("alice got %q ok=%v", msg, ok)
	}
	if msg, ok := bob.readReply(t, round, bKeys, bSecret, &alice.pub, resp.Body[1]); !ok || string(msg) != "over the wire" {
		t.Fatalf("bob got %q ok=%v", msg, ok)
	}

	// And a dialing round over the same chain.
	req, err := dial.BuildRequest(&alice.pub, &bob.pub, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	dOnion, _, err := onion.Wrap(req.Marshal(), round, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&wire.Message{
		Kind: wire.KindBatch, Proto: wire.ProtoDial, Round: round, M: 2,
		Body: [][]byte{dOnion},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	buckets := snk.last()
	if buckets == nil {
		t.Fatal("no buckets after networked dial round")
	}
	found := dial.ScanBucket(buckets.Invitations(dial.BucketOf(&bob.pub, 2)), &bob.pub, &bob.priv)
	if len(found) != 1 || found[0].Sender != alice.pub {
		t.Fatal("bob did not receive alice's invitation over the wire")
	}
	_ = servers
}

// TestConfigValidation covers NewServer's error paths.
func TestConfigValidation(t *testing.T) {
	pubs, privs, _ := NewChainKeys(2)
	if _, err := NewServer(Config{Position: 5, ChainPubs: pubs, Priv: privs[0]}); err == nil {
		t.Fatal("out-of-range position accepted")
	}
	if _, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0]}); err == nil {
		t.Fatal("mixing server without successor accepted")
	}
	// Last server needs no successor.
	if _, err := NewServer(Config{Position: 1, ChainPubs: pubs, Priv: privs[1]}); err != nil {
		t.Fatal(err)
	}
}

// TestAllowRoundReuse enables replay for adversary simulations.
func TestAllowRoundReuse(t *testing.T) {
	pubs, privs, _ := NewChainKeys(1)
	srv, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0], AllowRoundReuse: true})
	if err != nil {
		t.Fatal(err)
	}
	alice := newUser(t, "alice")
	o, _, _ := alice.convoOnion(t, 3, pubs, nil, nil)
	for i := 0; i < 2; i++ {
		if _, err := srv.ConvoRound(3, [][]byte{o}); err != nil {
			t.Fatal(err)
		}
	}
}

func BenchmarkConvoRound3Chain100(b *testing.B) {
	pubs, privs, err := NewChainKeys(3)
	if err != nil {
		b.Fatal(err)
	}
	servers, _, stop, err := StartChain(transport.NewMem(), pubs, privs, Config{
		ConvoNoise:      noise.Fixed{N: 10},
		AllowRoundReuse: true,
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer stop()
	alice := newUser(b, "alice")
	onions := make([][]byte, 100)
	for i := range onions {
		o, _, _ := alice.convoOnion(b, 1, pubs, nil, nil)
		onions[i] = o
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := servers[0].ConvoRound(1, onions); err != nil {
			b.Fatal(err)
		}
	}
}

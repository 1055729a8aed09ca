package mixnet

import (
	"errors"
	"net"
	"sync"
	"testing"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/crypto/x25519"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// tappedBatch is one batch server 0 forwarded to its successor.
type tappedBatch struct {
	proto  wire.Proto
	round  uint64
	onions [][]byte
}

// legTap sits on server 0's successor leg. The leg runs inside
// transport.Secure, so a tap has to terminate it: the test holds every
// chain key, answers server 0 as server 1 would, records the batch and
// passes it to the real server 1 as server 0 would.
type legTap struct {
	mu      sync.Mutex
	batches []tappedBatch
}

func (tap *legTap) seen() []tappedBatch {
	tap.mu.Lock()
	defer tap.mu.Unlock()
	return append([]tappedBatch(nil), tap.batches...)
}

// redirectNet sends dials of one address to another.
type redirectNet struct {
	transport.Network
	from, to string
}

func (r redirectNet) Dial(addr string) (net.Conn, error) {
	if addr == r.from {
		addr = r.to
	}
	return r.Network.Dial(addr)
}

// tappedChain is StartChain over transport.Mem with a legTap spliced
// between server 0 and server 1.
func tappedChain(t *testing.T, n int, convoNoise, dialNoise noise.Distribution) ([]*Server, []box.PublicKey, []box.PrivateKey, *legTap) {
	t.Helper()
	pubs, privs, err := NewChainKeys(n)
	if err != nil {
		t.Fatal(err)
	}
	mem := transport.NewMem()
	l, err := mem.Listen("tap")
	if err != nil {
		t.Fatal(err)
	}
	tap := &legTap{}
	onward := NewChainLeg(mem, "server-1", privs[0], pubs[1])
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				conn := wire.NewConn(transport.SecureServer(raw, privs[1], []box.PublicKey{pubs[0]}))
				defer conn.Close()
				for {
					msg, err := conn.Recv()
					if err != nil {
						return
					}
					tap.mu.Lock()
					tap.batches = append(tap.batches, tappedBatch{msg.Proto, msg.Round, msg.Body})
					tap.mu.Unlock()
					resp := &wire.Message{Kind: wire.KindReplies, Proto: msg.Proto, Round: msg.Round}
					if resp.Body, err = onward.Forward(msg.Proto, msg.Round, msg.M, msg.Body, nil); err != nil {
						resp = wire.ErrorMessage(msg.Proto, msg.Round, err)
					}
					if conn.Send(resp) != nil {
						return
					}
				}
			}()
		}
	}()
	servers, _, stop, err := StartChain(redirectNet{mem, "server-1", "tap"}, pubs, privs, Config{
		ConvoNoise: convoNoise,
		DialNoise:  dialNoise,
		Workers:    2,
	}, &sink{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		stop()
		l.Close()
		onward.Close()
	})
	return servers, pubs, privs, tap
}

// unwrapDownstream takes an onion server 0 forwarded through every
// remaining layer under the round it travelled in, returning the
// ephemeral key of each layer and the innermost request.
func unwrapDownstream(t *testing.T, o []byte, round uint64, privs []box.PrivateKey) (epubs []box.PublicKey, inner []byte) {
	t.Helper()
	for layer := 1; layer < len(privs); layer++ {
		if len(o) < box.KeySize {
			t.Fatalf("layer %d: onion of %d bytes", layer, len(o))
		}
		epubs = append(epubs, box.PublicKey(o[:box.KeySize]))
		var err error
		if o, _, err = onion.UnwrapLayer(o, &privs[layer], round, layer); err != nil {
			t.Fatalf("layer %d does not unwrap under round %d: %v", layer, round, err)
		}
	}
	return epubs, o
}

// waitRefilled blocks until the server's refill goroutines have exited,
// which they do once the pool is back at the depth the last round took.
func waitRefilled(s *Server) { s.pool.refills.Wait() }

// TestNoisePathsSingleUse watches the successor leg across conversation
// rounds and a dialing round that all draw on one pool: no ephemeral key,
// at any layer, appears on the wire twice — within a round, across rounds
// or across the two protocols. A reused path would link two noise onions
// and repeat a (key, nonce) pair.
func TestNoisePathsSingleUse(t *testing.T) {
	const rounds = 6
	servers, pubs, privs, tap := tappedChain(t, 3, noise.Fixed{N: 3}, noise.Fixed{N: 2})
	alice, bob := newUser(t, "alice"), newUser(t, "bob")
	for r := uint64(1); r <= rounds; r++ {
		a, _, _ := alice.convoOnion(t, r, pubs, &bob.pub, []byte("hi"))
		b, _, _ := bob.convoOnion(t, r, pubs, &alice.pub, []byte("hi"))
		if _, err := servers[0].ConvoRound(r, [][]byte{a, b}); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		if r == rounds/2 {
			// A dialing round in the middle takes from the pool the
			// conversation rounds filled, and they from what it leaves.
			waitRefilled(servers[0])
			const m = 2
			req, err := dial.BuildRequest(&alice.pub, &bob.pub, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			o, _, err := onion.Wrap(req.Marshal(), 1, 0, pubs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := servers[0].DialRound(1, m, [][]byte{o}); err != nil {
				t.Fatal(err)
			}
		}
		waitRefilled(servers[0])
	}

	seen := make(map[box.PublicKey]bool)
	total := 0
	for _, b := range tap.seen() {
		for _, o := range b.onions {
			epubs, _ := unwrapDownstream(t, o, b.round, privs)
			for _, epub := range epubs {
				if seen[epub] {
					t.Fatalf("ephemeral key %x seen twice on the wire (proto %d round %d)", epub[:8], b.proto, b.round)
				}
				seen[epub] = true
			}
			total++
		}
	}
	// Per conversation round 2 real + 3 singles + 2·⌈3/2⌉ paired noise;
	// the dialing round 1 real + 2 buckets × 2 noise.
	if want := rounds*(2+3+4) + (1 + 2*2); total != want {
		t.Fatalf("tap saw %d onions, want %d", total, want)
	}
	// Round 1 agrees its 7 paths cold; the dialing round takes 4 of the 7
	// refilled behind round 3 and the pool tops itself up to 7 + 4, so the
	// conversation round after it, like all else, comes pre-agreed.
	if got := servers[0].pool.inline; got != 7 {
		t.Fatalf("%d paths agreed inline, want 7", got)
	}
}

// drawSeq is a noise distribution that hands out a fixed sequence.
type drawSeq struct {
	mu    sync.Mutex
	draws []int
}

func (d *drawSeq) Sample(noise.Source) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.draws[0]
	d.draws = d.draws[1:]
	return n
}

// TestNoiseBatchExactUnderVaryingDraws runs rounds whose noise totals
// rise and fall like Laplace draws — 40, 10, 55, 0, 20 — so the pool
// meets each in a different state: empty, over-full, short, idle, partly
// drained. Whatever it held, the batch that leaves is exactly real +
// noise, and every onion in it unwraps through the rest of the chain,
// under the round it was sent in, to a well-formed exchange request.
func TestNoiseBatchExactUnderVaryingDraws(t *testing.T) {
	totals := []int{40, 10, 55, 0, 20}
	draws := &drawSeq{}
	for _, n := range totals {
		draws.draws = append(draws.draws, n, 0) // n singles, no pairs
	}
	// In a chain of two only server 0 draws conversation noise.
	servers, pubs, privs, tap := tappedChain(t, 2, draws, nil)

	alice := newUser(t, "alice")
	for i, n := range totals {
		round := uint64(i + 1)
		own, _, _ := alice.convoOnion(t, round, pubs, nil, nil)
		replies, err := servers[0].ConvoRound(round, [][]byte{own})
		if err != nil || len(replies) != 1 {
			t.Fatalf("round %d: %d replies, %v", round, len(replies), err)
		}
		batch := tap.seen()[i]
		if batch.round != round || len(batch.onions) != 1+n {
			t.Fatalf("round %d: forwarded %d onions as round %d, want %d", round, len(batch.onions), batch.round, 1+n)
		}
		for _, o := range batch.onions {
			if _, inner := unwrapDownstream(t, o, round, privs); len(inner) != convo.RequestSize {
				t.Fatalf("round %d: innermost request of %d bytes", round, len(inner))
			}
		}
		waitRefilled(servers[0])
	}
	// 40 cold, then 10 and part of 55 from the 40 refilled (30 + 25
	// inline), 0, and 20 from the 55 refilled.
	if got := servers[0].pool.inline; got != 40+25 {
		t.Fatalf("%d paths agreed inline, want 65", got)
	}
}

// TestPathPoolGetExact: get returns exactly n fresh paths from an empty,
// a partly filled and an over-full pool, and the pool tops itself back up
// to what was last asked for — never past what it already holds.
func TestPathPoolGetExact(t *testing.T) {
	pubs, _, err := NewChainKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	peers, err := box.NewPeers(pubs)
	if err != nil {
		t.Fatal(err)
	}
	pl := newPathPool(peers, 2)
	defer pl.close()
	seen := make(map[box.PublicKey]bool)
	for _, step := range []struct{ n, inline, left int }{
		{40, 40, 40}, // empty: all agreed on the spot, refilled to 40
		{10, 40, 30}, // over-full: 10 handed out, nothing to refill
		{55, 65, 55}, // partly filled: 30 held + 25 on the spot
		{0, 65, 55},
		{20, 65, 35},
	} {
		paths, err := pl.get(step.n)
		if err != nil || len(paths) != step.n {
			t.Fatalf("get(%d) returned %d paths, %v", step.n, len(paths), err)
		}
		for _, p := range paths {
			epub := box.PublicKey(p.Seal(nil, 1, 0)[:box.KeySize])
			if seen[epub] {
				t.Fatalf("get(%d) handed out a path twice", step.n)
			}
			seen[epub] = true
		}
		pl.refills.Wait()
		if pl.inline != step.inline || len(pl.paths) != step.left || pl.running != 0 {
			t.Fatalf("after get(%d): %d inline, %d held, %d refilling; want %d, %d, 0",
				step.n, pl.inline, len(pl.paths), pl.running, step.inline, step.left)
		}
	}
}

// TestSteadyRoundAgreesNothingInline is the point of the pool: once the
// refill behind round r has finished, round r+1 with the same noise total
// runs no key agreement of its own — also when a dialing round, with its
// smaller take, ran in between: the pool's depth follows each protocol's
// last round, not the last caller's. A new or restarted server has no
// pool to resume — its first round of each protocol pays in full, as
// every round used to.
func TestSteadyRoundAgreesNothingInline(t *testing.T) {
	servers, pubs, _, _ := tappedChain(t, 3, noise.Fixed{N: 6}, noise.Fixed{N: 2})
	const noisePerRound = 6 + 6
	const dialBuckets, dialNoise = 2, 2 * 2
	pool := servers[0].pool
	if len(pool.paths) != 0 || pool.running != 0 {
		t.Fatalf("a new server holds %d paths with %d refills running", len(pool.paths), pool.running)
	}
	alice := newUser(t, "alice")
	wantInline, wantHeld := noisePerRound, noisePerRound
	for round := uint64(1); round <= 5; round++ {
		o, _, _ := alice.convoOnion(t, round, pubs, nil, nil)
		if _, err := servers[0].ConvoRound(round, [][]byte{o}); err != nil {
			t.Fatal(err)
		}
		waitRefilled(servers[0])
		if pool.inline != wantInline || len(pool.paths) != wantHeld {
			t.Fatalf("after round %d: %d paths agreed inline (want %d, none of them here), %d held (want %d)",
				round, pool.inline, wantInline, len(pool.paths), wantHeld)
		}
		if round == 2 || round == 4 {
			// The first dialing round finds the 12 paths the conversation
			// rounds keep and agrees nothing; from then on the pool holds
			// both protocols' takes, and neither round finds it short.
			if err := servers[0].DialRound(round/2, dialBuckets, nil); err != nil {
				t.Fatal(err)
			}
			waitRefilled(servers[0])
			wantHeld = noisePerRound + dialNoise
			if pool.inline != wantInline || len(pool.paths) != wantHeld {
				t.Fatalf("after the dialing round behind round %d: %d paths agreed inline (want %d), %d held (want %d)",
					round, pool.inline, wantInline, len(pool.paths), wantHeld)
			}
		}
	}
}

// TestPathPoolCloseMidRefill: close landing while the refill is running
// returns only once its goroutines are gone and leaves nothing held; gets
// racing it — rounds racing Server.Close — still return exactly n paths
// and start no refill behind it. The last server has no pool to close.
func TestPathPoolCloseMidRefill(t *testing.T) {
	pubs, privs, err := NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	n := 400
	if testing.Short() {
		n = 100
	}
	peers, err := box.NewPeers(pubs[1:])
	if err != nil {
		t.Fatal(err)
	}
	pl := newPathPool(peers, 2)
	if _, err := pl.get(n); err != nil {
		t.Fatal(err)
	}
	pl.mu.Lock()
	running, held := pl.running, len(pl.paths)
	pl.mu.Unlock()
	if running == 0 || held >= n {
		t.Fatalf("refill already over (%d running, %d of %d held): nothing to close into", running, held, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if paths, err := pl.get(5); err != nil || len(paths) != 5 {
				t.Errorf("get racing close returned %d paths, %v", len(paths), err)
			}
		}()
	}
	pl.close()
	pl.mu.Lock()
	running, held = pl.running, len(pl.paths)
	pl.mu.Unlock()
	if running != 0 || held != 0 {
		t.Fatalf("close returned with %d refills running and %d paths held", running, held)
	}
	wg.Wait()
	if paths, err := pl.get(3); err != nil || len(paths) != 3 || pl.running != 0 {
		t.Fatalf("get on a closed pool: %d paths, %v, %d refills started", len(paths), err, pl.running)
	}

	last, err := NewServer(Config{Position: 1, ChainPubs: pubs, Priv: privs[1]})
	if err != nil {
		t.Fatal(err)
	}
	if last.pool != nil {
		t.Fatal("the last server wraps no noise and must hold no pool")
	}
	if err := last.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewServerRefusesTwistKey: a downstream chain key that is not a
// curve25519 point (u = 2 lies on the twist) has no private half any
// server could hold, yet every noise onion would agree a key with it:
// NewServer refuses it once, where it used to start and fail every round.
func TestNewServerRefusesTwistKey(t *testing.T) {
	pubs, privs, err := NewChainKeys(3)
	if err != nil {
		t.Fatal(err)
	}
	pubs[2] = box.PublicKey{2}
	for pos := 0; pos < 2; pos++ {
		s, err := NewServer(Config{Position: pos, ChainPubs: pubs, Priv: privs[pos], Net: transport.NewMem(), NextAddr: "unused"})
		if !errors.Is(err, x25519.ErrNotOnCurve) {
			if s != nil {
				s.Close()
			}
			t.Fatalf("server %d started toward a twist point: %v", pos, err)
		}
	}
}

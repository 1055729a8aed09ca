package mixnet

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deaddrop"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// shardFixture is a running set of shard servers plus the key material a
// router needs to talk to them — every shard test goes through the
// authenticated channel, exactly like production.
type shardFixture struct {
	mem        *transport.Mem
	addrs      []string
	shardPubs  []box.PublicKey
	shardPrivs []box.PrivateKey
	routerPub  box.PublicKey
	routerPriv box.PrivateKey
	stop       func()
}

func testRouterKeys(t testing.TB) (box.PublicKey, box.PrivateKey) {
	t.Helper()
	return box.KeyPairFromSeed([]byte("test-router"))
}

func testShardKeys(t testing.TB, n int) ([]box.PublicKey, []box.PrivateKey) {
	t.Helper()
	pubs := make([]box.PublicKey, n)
	privs := make([]box.PrivateKey, n)
	for i := 0; i < n; i++ {
		pubs[i], privs[i] = box.KeyPairFromSeed([]byte(fmt.Sprintf("test-shard-%d", i)))
	}
	return pubs, privs
}

// startShards launches n shard servers on a fresh in-memory network and
// returns the fixture with keys and a shutdown func.
func startShards(t testing.TB, n int) *shardFixture {
	t.Helper()
	fix := &shardFixture{mem: transport.NewMem()}
	fix.routerPub, fix.routerPriv = testRouterKeys(t)
	fix.shardPubs, fix.shardPrivs = testShardKeys(t, n)
	fix.addrs = make([]string, n)
	var stops []func()
	for i := 0; i < n; i++ {
		ss, err := NewShardServer(ShardConfig{
			Index: i, NumShards: n,
			Identity:   fix.shardPrivs[i],
			Authorized: []box.PublicKey{fix.routerPub},
		})
		if err != nil {
			t.Fatal(err)
		}
		fix.addrs[i] = addrName(i)
		l, err := fix.mem.Listen(fix.addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		go ss.Serve(l)
		stops = append(stops, func() { l.Close(); ss.Close() })
	}
	fix.stop = func() {
		for _, stop := range stops {
			stop()
		}
	}
	return fix
}

func addrName(i int) string {
	return string(rune('a'+i)) + "-shard"
}

// router builds a ShardRouter over the fixture's shards with the given
// timeout.
func (fix *shardFixture) router(t testing.TB, timeout time.Duration) *ShardRouter {
	t.Helper()
	return fix.routerOn(t, fix.mem, timeout)
}

// routerOn is router dialing through an alternate network (a Faulty or
// MITM wrapper around the fixture's Mem).
func (fix *shardFixture) routerOn(t testing.TB, net transport.Network, timeout time.Duration) *ShardRouter {
	t.Helper()
	r, err := NewShardRouter(Config{
		Net:          net,
		ShardAddrs:   fix.addrs,
		ShardPubs:    fix.shardPubs,
		Priv:         fix.routerPriv,
		ShardTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// mixedRequests produces a batch mixing well-formed requests over a small
// (colliding) drop space with malformed requests of assorted wrong
// lengths — the same adversarial shape the in-process equivalence suite
// uses.
func mixedRequests(rng *mrand.Rand, n int) [][]byte {
	reqs := make([][]byte, n)
	for i := range reqs {
		switch rng.Intn(8) {
		case 0: // malformed: truncated, oversized, or empty
			wrong := []int{0, 1, convo.RequestSize - 1, convo.RequestSize + 1, 3 * convo.RequestSize}[rng.Intn(5)]
			b := make([]byte, wrong)
			rand.Read(b)
			reqs[i] = b
		default:
			b := make([]byte, convo.RequestSize)
			rand.Read(b)
			// Small drop space → frequent collisions (pairs, triples, ...).
			v := rng.Intn(24)
			b[0], b[1] = byte(v), byte(v>>8)
			for j := 2; j < deaddrop.IDSize; j++ {
				b[j] = byte(v * (j + 7))
			}
			reqs[i] = b
		}
	}
	return reqs
}

// TestShardRouterEquivalence is the correctness core: the networked
// fan-out — now running entirely inside authenticated channels —
// produces byte-identical replies to the sequential table, for 1, 2, 8,
// and a non-power-of-two shard count, on batches with colliding and
// malformed drop IDs.
func TestShardRouterEquivalence(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	trials := 12
	if testing.Short() {
		trials = 4
	}
	for _, shards := range []int{1, 2, 8, 5} {
		fix := startShards(t, shards)
		router := fix.router(t, 0)
		for trial := 0; trial < trials; trial++ {
			round := uint64(trial + 1)
			reqs := mixedRequests(rng, rng.Intn(200))
			want := convo.Service{}.Process(round, reqs)
			got, err := router.Exchange(round, reqs)
			if err != nil {
				t.Fatalf("shards=%d trial=%d: %v", shards, trial, err)
			}
			if len(got) != len(want) {
				t.Fatalf("shards=%d trial=%d: reply counts %d/%d", shards, trial, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("shards=%d trial=%d: networked reply %d differs from sequential", shards, trial, i)
				}
			}
		}
		router.Close()
		fix.stop()
	}
}

// TestShardRouterEmptyRound: an empty batch still fans out (every shard
// sees every round) and merges to zero replies.
func TestShardRouterEmptyRound(t *testing.T) {
	fix := startShards(t, 3)
	defer fix.stop()
	router := fix.router(t, 0)
	defer router.Close()
	replies, err := router.Exchange(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replies) != 0 {
		t.Fatalf("%d replies for empty round", len(replies))
	}
}

// TestShardRoundReplayRejected: a shard refuses to process the same round
// twice, and the router surfaces that as a RemoteError naming the shard —
// the guard that makes retrying a consumed round fail cleanly. The
// refusal is the shard's own, not a transport authentication failure: a
// consumed round is never silently re-answered.
func TestShardRoundReplayRejected(t *testing.T) {
	fix := startShards(t, 2)
	defer fix.stop()
	router := fix.router(t, 0)
	defer router.Close()

	reqs := mixedRequests(mrand.New(mrand.NewSource(3)), 40)
	if _, err := router.Exchange(5, reqs); err != nil {
		t.Fatal(err)
	}
	_, err := router.Exchange(5, reqs)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("replayed round returned %v, want RemoteError", err)
	}
	if errors.Is(err, transport.ErrAuth) {
		t.Fatalf("replay rejection misclassified as transport auth failure: %v", err)
	}
	// The connection must remain usable for the next (valid) round.
	if _, err := router.Exchange(6, reqs); err != nil {
		t.Fatalf("round after replay rejection: %v", err)
	}
}

// TestDegradeStillRejectsStaleRound: a consumed round number — the same
// round again, or any earlier one — fails the whole round with the
// shard's rejection, and is never answered around: a consumed round must
// not be silently re-answered. Fresh rounds work afterwards.
func TestDegradeStillRejectsStaleRound(t *testing.T) {
	const shards = 3
	fix := startShards(t, shards)
	defer fix.stop()
	router := fix.router(t, 0)
	defer router.Close()

	reqs := mixedRequests(mrand.New(mrand.NewSource(13)), 40)
	if _, err := router.Exchange(5, reqs); err != nil {
		t.Fatalf("round 5: %v", err)
	}
	for _, stale := range []uint64{5, 4, 1} {
		replies, err := router.Exchange(stale, reqs)
		var remote *RemoteError
		if !errors.As(err, &remote) {
			t.Fatalf("stale round %d returned %v, want RemoteError", stale, err)
		}
		if replies != nil {
			t.Fatalf("stale round %d answered with %d replies", stale, len(replies))
		}
		if errors.Is(err, transport.ErrAuth) {
			t.Fatalf("stale round %d rejection misclassified as transport auth failure: %v", stale, err)
		}
	}
	if _, err := router.Exchange(6, reqs); err != nil {
		t.Fatalf("round 6 after rejected stale rounds: %v", err)
	}
}

// TestShardMisroutedFrameRejected: a shard server rejects frames whose
// index is out of range or routed to the wrong shard, without closing the
// connection. The probe authenticates with the router's key — an
// unauthenticated probe would not get as far as frame validation.
func TestShardMisroutedFrameRejected(t *testing.T) {
	fix := startShards(t, 4)
	defer fix.stop()
	raw, err := fix.mem.Dial(addrName(2))
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(transport.SecureClient(raw, fix.routerPriv, fix.shardPubs[2]))
	defer conn.Close()

	for _, shard := range []uint32{0, 3, 4, 99} {
		if err := conn.Send(wire.ShardRoundMessage(uint64(shard)+1, shard, nil)); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatalf("shard closed connection on misrouted frame: %v", err)
		}
		if resp.Kind != wire.KindError {
			t.Fatalf("misrouted frame for shard %d accepted: kind %d", shard, resp.Kind)
		}
	}
	// A correctly routed round still works on the same connection.
	if err := conn.Send(wire.ShardRoundMessage(100, 2, nil)); err != nil {
		t.Fatal(err)
	}
	resp, err := conn.Recv()
	if err != nil || resp.Kind != wire.KindShardReply {
		t.Fatalf("valid round after misroutes: kind=%v err=%v", resp, err)
	}
}

// evilShard runs a fake shard server speaking the authenticated channel
// correctly but misbehaving at the wire layer per handle — the
// authenticated-but-compromised shard of the threat model.
func evilShard(t *testing.T, mem *transport.Mem, addr string, priv box.PrivateKey, routerPub box.PublicKey,
	handle func(conn *wire.Conn, msg *wire.Message, rounds int) bool) {
	t.Helper()
	l, err := mem.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		rounds := 0
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			// Serve connections serially: the router holds one at a time.
			conn := wire.NewConn(transport.SecureServer(raw, priv, []box.PublicKey{routerPub}))
			for {
				msg, err := conn.Recv()
				if err != nil {
					break
				}
				rounds++
				if !handle(conn, msg, rounds) {
					break
				}
			}
			conn.Close()
		}
	}()
}

// TestShardDuplicateReplyDesync: a buggy/evil shard that sends two
// replies for one round desynchronizes its stream; the router must detect
// the stale frame on the next round, fail that round, and recover on the
// one after by redialing.
func TestShardDuplicateReplyDesync(t *testing.T) {
	mem := transport.NewMem()
	routerPub, routerPriv := testRouterKeys(t)
	evilPub, evilPriv := box.KeyPairFromSeed([]byte("evil-shard"))
	evilShard(t, mem, "evil", evilPriv, routerPub, func(conn *wire.Conn, msg *wire.Message, rounds int) bool {
		replies := make([][]byte, len(msg.Body))
		for i := range replies {
			replies[i] = make([]byte, convo.SealedSize)
		}
		if rounds == 2 {
			// Desync: replay the previous round's reply frame ahead of
			// the real one (a duplicate shard reply).
			if err := conn.Send(wire.ShardReplyMessage(msg.Round-1, msg.Bucket, replies)); err != nil {
				return false
			}
		}
		return conn.Send(wire.ShardReplyMessage(msg.Round, msg.Bucket, replies)) == nil
	})

	router, err := NewShardRouter(Config{
		Net: mem, ShardAddrs: []string{"evil"}, ShardPubs: []box.PublicKey{evilPub}, Priv: routerPriv,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	reqs := mixedRequests(mrand.New(mrand.NewSource(9)), 10)
	if _, err := router.Exchange(1, reqs); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	// Round 2 reads the duplicated round-1 frame: stale round → error.
	_, err = router.Exchange(2, reqs)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("round 2 against desynced stream returned %v, want RemoteError", err)
	}
	// Round 3 redials a clean connection.
	if _, err := router.Exchange(3, reqs); err != nil {
		t.Fatalf("round 3 after desync recovery: %v", err)
	}
}

// TestShardReplyCountMismatchRejected: a shard returning the wrong number
// of replies must fail the round rather than misalign the merge.
func TestShardReplyCountMismatchRejected(t *testing.T) {
	mem := transport.NewMem()
	routerPub, routerPriv := testRouterKeys(t)
	shortPub, shortPriv := box.KeyPairFromSeed([]byte("short-shard"))
	evilShard(t, mem, "short", shortPriv, routerPub, func(conn *wire.Conn, msg *wire.Message, rounds int) bool {
		// One reply too few.
		replies := make([][]byte, 0, len(msg.Body))
		for i := 0; i+1 < len(msg.Body); i++ {
			replies = append(replies, make([]byte, convo.SealedSize))
		}
		return conn.Send(wire.ShardReplyMessage(msg.Round, msg.Bucket, replies)) == nil
	})

	router, err := NewShardRouter(Config{
		Net: mem, ShardAddrs: []string{"short"}, ShardPubs: []box.PublicKey{shortPub}, Priv: routerPriv,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	reqs := mixedRequests(mrand.New(mrand.NewSource(4)), 12)
	_, err = router.Exchange(1, reqs)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("short reply batch returned %v, want RemoteError", err)
	}
}

// TestShardSendStallTimesOut: the per-shard timeout must cover the send
// leg too — a shard that accepts the connection but never drains bytes
// (stopped process, full TCP window) stalls the router's write (now the
// handshake hello), and without a write deadline the fan-out barrier
// would wedge the whole chain forever.
func TestShardSendStallTimesOut(t *testing.T) {
	mem := transport.NewMem()
	_, routerPriv := testRouterKeys(t)
	stalledPub, _ := box.KeyPairFromSeed([]byte("stalled-shard"))
	l, err := mem.Listen("stalled")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan struct{}, 4)
	go func() {
		for {
			// Accept and hold the connection without ever reading: every
			// byte the router writes into the pipe blocks.
			c, err := l.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			defer c.Close()
		}
	}()

	router, err := NewShardRouter(Config{
		Net: mem, ShardAddrs: []string{"stalled"}, ShardPubs: []box.PublicKey{stalledPub},
		Priv: routerPriv, ShardTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	start := time.Now()
	_, err = router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(8)), 16))
	elapsed := time.Since(start)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("stalled send returned %v, want RemoteError", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("stalled send held the round for %v with a 150ms timeout", elapsed)
	}
	<-accepted
}

// TestShardHandshakeTimeoutDropsIdleDialer: a peer that connects to a
// shard and never completes the handshake is dropped after the
// handshake timeout — an unauthenticated dial cannot pin a shard
// goroutine and socket forever.
func TestShardHandshakeTimeoutDropsIdleDialer(t *testing.T) {
	mem := transport.NewMem()
	routerPub, _ := testRouterKeys(t)
	_, shardPriv := box.KeyPairFromSeed([]byte("hs-timeout-shard"))
	ss, err := NewShardServer(ShardConfig{
		Index: 0, NumShards: 1,
		Identity: shardPriv, Authorized: []box.PublicKey{routerPub},
		HandshakeTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := mem.Listen("hs-timeout")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ss.Serve(l)
	defer ss.Close()

	raw, err := mem.Dial("hs-timeout")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle unauthenticated dialer received data")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("idle dialer held its connection for %v with a 100ms handshake timeout", elapsed)
	}
}

// TestShardHandshakeReplayCannotPinGoroutine: a network observer can
// replay a captured handshake hello verbatim — it completes the shard's
// side of the handshake (the replayer never learns the session key), so
// handshake completion alone must NOT lift the connection deadline. The
// shard keeps the bound until the first authenticated frame, and the
// replayed connection is dropped within the handshake timeout.
func TestShardHandshakeReplayCannotPinGoroutine(t *testing.T) {
	mem := transport.NewMem()
	routerPub, routerPriv := testRouterKeys(t)
	shardPub, shardPriv := box.KeyPairFromSeed([]byte("replay-shard"))
	ss, err := NewShardServer(ShardConfig{
		Index: 0, NumShards: 1,
		Identity: shardPriv, Authorized: []box.PublicKey{routerPub},
		HandshakeTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := mem.Listen("replay-shard")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ss.Serve(l)
	defer ss.Close()

	// Capture a genuine hello off the wire with the MITM tap, driving
	// one legitimate exchange through it.
	var hello []byte
	mitm := transport.NewMITM(mem)
	mitm.Intercept("replay-shard", func(dir transport.Direction, index int, rec []byte) [][]byte {
		if dir == transport.ClientToServer && index == 0 {
			hello = append([]byte(nil), rec...)
		}
		return [][]byte{rec}
	})
	raw, err := mitm.Dial("replay-shard")
	if err != nil {
		t.Fatal(err)
	}
	legit := wire.NewConn(transport.SecureClient(raw, routerPriv, shardPub))
	if err := legit.Send(wire.ShardRoundMessage(1, 0, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := legit.Recv(); err != nil {
		t.Fatalf("legitimate exchange through the tap: %v", err)
	}
	legit.Close()
	if len(hello) == 0 {
		t.Fatal("tap captured no handshake hello")
	}

	// Replay the hello verbatim, then go silent: the server answers the
	// handshake but must drop the connection once no authenticated
	// frame follows.
	replay, err := mem.Dial("replay-shard")
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	frame := make([]byte, 4+len(hello))
	frame[3] = byte(len(hello))
	copy(frame[4:], hello)
	if _, err := replay.Write(frame); err != nil {
		t.Fatal(err)
	}
	replay.SetReadDeadline(time.Now().Add(3 * time.Second))
	start := time.Now()
	// Drain whatever the server sends (its handshake response) until the
	// connection dies; it must die within the handshake timeout, not
	// hang forever.
	buf := make([]byte, 1024)
	for {
		if _, err := replay.Read(buf); err != nil {
			break
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("replayed hello pinned the shard connection for %v with a 150ms handshake timeout", elapsed)
	}
}

// TestShardConfigValidation covers constructor error paths — including
// the new requirement that neither side constructs without key material,
// which is what makes the plaintext path unreachable.
func TestShardConfigValidation(t *testing.T) {
	_, priv := box.KeyPairFromSeed([]byte("cfg-shard"))
	routerPub, routerPriv := testRouterKeys(t)
	auth := []box.PublicKey{routerPub}
	if _, err := NewShardServer(ShardConfig{Index: 0, NumShards: 0, Identity: priv, Authorized: auth}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := NewShardServer(ShardConfig{Index: 3, NumShards: 3, Identity: priv, Authorized: auth}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := NewShardServer(ShardConfig{Index: 0, NumShards: 1, Authorized: auth}); err == nil {
		t.Fatal("shard server without an identity key accepted")
	}
	if _, err := NewShardServer(ShardConfig{Index: 0, NumShards: 1, Identity: priv}); err == nil {
		t.Fatal("shard server without authorized routers accepted")
	}
	if _, err := NewShardServer(ShardConfig{Index: 0, NumShards: 1, Identity: priv,
		Authorized: []box.PublicKey{{}}}); err == nil {
		t.Fatal("zero authorized key accepted")
	}

	shardPub, _ := box.KeyPairFromSeed([]byte("cfg-shard"))
	mem := transport.NewMem()
	if _, err := NewShardRouter(Config{ShardAddrs: []string{"x"}, ShardPubs: []box.PublicKey{shardPub}, Priv: routerPriv}); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := NewShardRouter(Config{Net: mem, Priv: routerPriv}); err == nil {
		t.Fatal("empty address list accepted")
	}
	if _, err := NewShardRouter(Config{Net: mem, ShardAddrs: []string{"x"}, Priv: routerPriv}); err == nil {
		t.Fatal("router without shard keys accepted — plaintext fan-out must be unreachable")
	}
	if _, err := NewShardRouter(Config{Net: mem, ShardAddrs: []string{"x"},
		ShardPubs: []box.PublicKey{{}}, Priv: routerPriv}); err == nil {
		t.Fatal("zero shard key accepted")
	}
	if _, err := NewShardRouter(Config{Net: mem, ShardAddrs: []string{"x"},
		ShardPubs: []box.PublicKey{shardPub}}); err == nil {
		t.Fatal("router without an identity key accepted")
	}

	pubs, privs, _ := NewChainKeys(2)
	if _, err := NewServer(Config{
		Position: 0, ChainPubs: pubs, Priv: privs[0],
		Net: transport.NewMem(), NextAddr: "next",
		ShardAddrs: []string{"s0"}, ShardPubs: []box.PublicKey{shardPub},
	}); err == nil {
		t.Fatal("shard addresses on a non-last server accepted")
	}
	if _, err := NewServer(Config{
		Position: 1, ChainPubs: pubs, Priv: privs[1],
		ShardAddrs: []string{"s0"}, ShardPubs: []box.PublicKey{shardPub},
	}); err == nil {
		t.Fatal("shard addresses without a network accepted")
	}
	if _, err := NewServer(Config{
		Position: 1, ChainPubs: pubs, Priv: privs[1], Net: transport.NewMem(),
		ShardAddrs: []string{"s0"},
	}); err == nil {
		t.Fatal("last server with shard addresses but no shard keys accepted")
	}
}

// tamperAfterHandshake corrupts every server→client record on the leg to
// addr after the handshake, so the router's record layer rejects the
// shard's reply.
func tamperAfterHandshake(mitm *transport.MITM, addr string) {
	mitm.Intercept(addr, func(dir transport.Direction, index int, rec []byte) [][]byte {
		if dir == transport.ServerToClient && index >= 1 {
			rec[0] ^= 0x55
		}
		return [][]byte{rec}
	})
}

// TestShardTamperedTrafficAuthFails: with one shard's traffic tampered by
// a MITM, the round fails with an authentication error naming that shard,
// even though at the wire level the shard merely looks unreachable.
func TestShardTamperedTrafficAuthFails(t *testing.T) {
	const shards = 4
	fix := startShards(t, shards)
	defer fix.stop()
	mitm := transport.NewMITM(fix.mem)
	tamperAfterHandshake(mitm, fix.addrs[2])
	router := fix.routerOn(t, mitm, 0)
	defer router.Close()

	_, err := router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(7)), 100))
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("tampered shard traffic returned %v, want an ErrAuth-classified RemoteError", err)
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Addr != fix.addrs[2] {
		t.Fatalf("auth failure did not name the tampered shard: %v", err)
	}
}

// TestShardAuthFailureReportedAheadOfOutage: when one round has both an
// outage (shard 0 unreachable) and an authentication failure (shard 2's
// traffic tampered), the round reports the authentication failure — an
// outage at a lower index must never hide a forging shard.
func TestShardAuthFailureReportedAheadOfOutage(t *testing.T) {
	const shards = 4
	fix := startShards(t, shards)
	defer fix.stop()
	mitm := transport.NewMITM(fix.mem)
	tamperAfterHandshake(mitm, fix.addrs[2])
	faulty := transport.NewFaulty(mitm)
	faulty.Break(fix.addrs[0])
	router := fix.routerOn(t, faulty, 0)
	defer router.Close()

	_, err := router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(9)), 100))
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("round with a dead and a tampered shard returned %v, want ErrAuth", err)
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Addr != fix.addrs[2] {
		t.Fatalf("round did not name the tampered shard %q: %v", fix.addrs[2], err)
	}
}

// TestShardMalformedFramesRefused: an authenticated shard whose response
// passes the record layer but fails the wire-frame parser is misbehaving,
// not unreachable — the round fails with wire.ErrMalformed in the chain.
func TestShardMalformedFramesRefused(t *testing.T) {
	mem := transport.NewMem()
	routerPub, routerPriv := testRouterKeys(t)
	evilPub, evilPriv := box.KeyPairFromSeed([]byte("garbage-shard"))
	l, err := mem.Listen("garbage")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				sc := transport.SecureServer(raw, evilPriv, []box.PublicKey{routerPub})
				defer sc.Close()
				// Consume the round frame, then answer with authenticated
				// bytes that are not a parseable wire frame.
				if _, err := wire.NewConn(sc).Recv(); err != nil {
					return
				}
				sc.Write([]byte{0, 0, 0, 2, 0xab, 0xcd})
			}()
		}
	}()

	router, err := NewShardRouter(Config{
		Net: mem, ShardAddrs: []string{"garbage"}, ShardPubs: []box.PublicKey{evilPub}, Priv: routerPriv,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	_, err = router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(17)), 20))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("authenticated garbage frames returned %v, want RemoteError", err)
	}
	if !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("garbage frames returned %v, want wire.ErrMalformed in the chain", err)
	}
}

// TestShardDeadShardFailsRound: a dead shard fails the round with a
// RemoteError naming it, the contract of a failed chain hop.
func TestShardDeadShardFailsRound(t *testing.T) {
	const shards = 3
	fix := startShards(t, shards)
	defer fix.stop()
	faulty := transport.NewFaulty(fix.mem)
	router := fix.routerOn(t, faulty, 0)
	defer router.Close()

	faulty.Break(fix.addrs[0])
	_, err := router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(2)), 30))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("dead shard returned %v, want RemoteError", err)
	}
	if remote.Addr != fix.addrs[0] {
		t.Fatalf("RemoteError names %q, want %q", remote.Addr, fix.addrs[0])
	}
}

// TestPlaintextShardRefusedByRouter: a shard that answers in the
// plaintext wire protocol (the pre-hardening behavior) cannot complete a
// round — the router's secured channel classifies its response as an
// authentication failure, not an outage. No request sub-batch ever
// reaches it: the only thing the router sends before authentication
// completes is the handshake hello.
func TestPlaintextShardRefusedByRouter(t *testing.T) {
	mem := transport.NewMem()
	_, routerPriv := testRouterKeys(t)
	plainPub, _ := box.KeyPairFromSeed([]byte("plaintext-shard"))
	l, err := mem.Listen("plain")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			// A legacy plaintext shard: it treats the handshake hello as
			// a frame and answers with a plaintext reply frame, marked
			// 0xAA so any leak into the round output would be visible.
			go func() {
				conn := wire.NewConn(raw)
				defer conn.Close()
				conn.Recv()
				replies := [][]byte{bytes.Repeat([]byte{0xAA}, convo.SealedSize)}
				conn.Send(wire.ShardReplyMessage(1, 0, replies))
			}()
		}
	}()

	router, err := NewShardRouter(Config{
		Net: mem, ShardAddrs: []string{"plain"}, ShardPubs: []box.PublicKey{plainPub},
		Priv: routerPriv, ShardTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	_, err = router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(6)), 20))
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("plaintext shard response returned %v, want ErrAuth", err)
	}
}

// TestSecureShardRefusesPlaintextRouter: the mirror image — a secured
// shard server never answers a plaintext router; the frames die in the
// handshake.
func TestSecureShardRefusesPlaintextRouter(t *testing.T) {
	fix := startShards(t, 2)
	defer fix.stop()
	raw, err := fix.mem.Dial(addrName(0))
	if err != nil {
		t.Fatal(err)
	}
	raw.SetDeadline(time.Now().Add(2 * time.Second))
	conn := wire.NewConn(raw)
	defer conn.Close()
	if err := conn.Send(wire.ShardRoundMessage(1, 0, nil)); err == nil {
		if _, err := conn.Recv(); err == nil {
			t.Fatal("secured shard answered a plaintext router")
		}
	}
}

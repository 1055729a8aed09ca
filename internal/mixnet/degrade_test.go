package mixnet

import (
	"bytes"
	"errors"
	mrand "math/rand"
	"sync"
	"testing"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deaddrop"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// shardOfRequest computes which shard a well-formed request routes to;
// -1 for malformed requests answered locally.
func shardOfRequest(b []byte, n int) int {
	if len(b) != convo.RequestSize {
		return -1
	}
	var id deaddrop.ID
	copy(id[:], b[:deaddrop.IDSize])
	return deaddrop.ShardOf(id, n)
}

// degradeLog is a Config.OnShardDegraded hook that collects the shards
// each Exchange degraded, in report order (ascending), and passes every
// report on to then (nil: none).
type degradeLog struct {
	then func(round uint64, shard int, addr string, err error)

	mu     sync.Mutex
	shards []int
}

func (l *degradeLog) hook(round uint64, shard int, addr string, err error) {
	l.mu.Lock()
	l.shards = append(l.shards, shard)
	l.mu.Unlock()
	if l.then != nil {
		l.then(round, shard, addr, err)
	}
}

// exchange runs one round on router and returns its replies with the
// shards degraded during it.
func (l *degradeLog) exchange(router *ShardRouter, round uint64, reqs [][]byte) ([][]byte, []int, error) {
	l.mu.Lock()
	l.shards = nil
	l.mu.Unlock()
	replies, err := router.Exchange(round, reqs)
	l.mu.Lock()
	defer l.mu.Unlock()
	return replies, l.shards, err
}

// TestDegradeZeroFailuresIdentical: ShardPolicy=Degrade with every shard
// healthy is byte-identical to the sequential path — the policy is free
// until a fault actually happens.
func TestDegradeZeroFailuresIdentical(t *testing.T) {
	rng := mrand.New(mrand.NewSource(21))
	for _, shards := range []int{1, 4, 5} {
		fix := startShards(t, shards)
		dlog := &degradeLog{then: func(round uint64, shard int, addr string, err error) {
			t.Errorf("healthy round degraded shard %d: %v", shard, err)
		}}
		router := fix.routerOn(t, fix.mem, 0, ShardDegrade, dlog.hook)
		for trial := 0; trial < 4; trial++ {
			round := uint64(trial + 1)
			reqs := mixedRequests(rng, 80)
			want := convo.Service{}.Process(round, reqs)
			got, degraded, err := dlog.exchange(router, round, reqs)
			if err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
			if len(degraded) != 0 {
				t.Fatalf("shards=%d: healthy round reported degraded shards %v", shards, degraded)
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("shards=%d: degrade-policy reply %d differs from sequential", shards, i)
				}
			}
		}
		router.Close()
		fix.stop()
	}
}

// TestDegradeZeroFillsDeadShards is the degradation core: with k of n
// shards killed, the round completes, surviving shards' replies are
// byte-identical to the sequential path, dead shards' replies are
// all-zero in exact request order, and the degraded set is reported both
// in the result and through the callback.
func TestDegradeZeroFillsDeadShards(t *testing.T) {
	const shards = 5
	rng := mrand.New(mrand.NewSource(33))
	for _, kill := range [][]int{{2}, {0, 3}, {1, 2, 4}} {
		fix := startShards(t, shards)
		faulty := transport.NewFaulty(fix.mem)
		var mu sync.Mutex
		reported := make(map[int]error)
		dlog := &degradeLog{then: func(round uint64, shard int, addr string, err error) {
			mu.Lock()
			defer mu.Unlock()
			if addr != fix.addrs[shard] {
				t.Errorf("callback addr %q for shard %d, want %q", addr, shard, fix.addrs[shard])
			}
			reported[shard] = err
		}}
		router := fix.routerOn(t, faulty, 0, ShardDegrade, dlog.hook)

		dead := make(map[int]bool)
		for _, s := range kill {
			faulty.Break(fix.addrs[s])
			dead[s] = true
		}

		round := uint64(1)
		reqs := mixedRequests(rng, 150)
		want := convo.Service{}.Process(round, reqs)
		got, degraded, err := dlog.exchange(router, round, reqs)
		if err != nil {
			t.Fatalf("kill=%v: degraded round failed: %v", kill, err)
		}
		if len(got) != len(reqs) {
			t.Fatalf("kill=%v: %d replies for %d requests", kill, len(got), len(reqs))
		}
		if len(degraded) != len(kill) {
			t.Fatalf("kill=%v: degraded set %v", kill, degraded)
		}
		for _, s := range degraded {
			if !dead[s] {
				t.Fatalf("kill=%v: healthy shard %d reported degraded", kill, s)
			}
			if _, ok := reported[s]; !ok {
				t.Fatalf("kill=%v: shard %d degraded without a callback", kill, s)
			}
		}
		zero := make([]byte, convo.SealedSize)
		for i, b := range reqs {
			s := shardOfRequest(b, shards)
			switch {
			case s >= 0 && dead[s]:
				if !bytes.Equal(got[i], zero) {
					t.Fatalf("kill=%v: reply %d from dead shard %d not zero-filled", kill, i, s)
				}
			default:
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("kill=%v: surviving reply %d differs from sequential", kill, i)
				}
			}
		}

		// Healing the shards heals the round: no degraded shards, full
		// equivalence again.
		for _, s := range kill {
			faulty.Restore(fix.addrs[s])
		}
		round = 2
		want = convo.Service{}.Process(round, reqs)
		got, degraded, err = dlog.exchange(router, round, reqs)
		if err != nil {
			t.Fatalf("kill=%v: healed round failed: %v", kill, err)
		}
		if len(degraded) != 0 {
			t.Fatalf("kill=%v: healed round still degraded %v", kill, degraded)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("kill=%v: healed reply %d differs from sequential", kill, i)
			}
		}
		router.Close()
		fix.stop()
	}
}

// TestDegradeHungShardZeroFilled: a hung (not killed) shard is also
// degradable — the per-shard timeout converts silence into a zero-fill
// instead of aborting the round.
func TestDegradeHungShardZeroFilled(t *testing.T) {
	const shards = 3
	fix := startShards(t, shards)
	defer fix.stop()
	faulty := transport.NewFaulty(fix.mem)
	dlog := &degradeLog{}
	router := fix.routerOn(t, faulty, 200*time.Millisecond, ShardDegrade, dlog.hook)
	defer router.Close()

	reqs := mixedRequests(mrand.New(mrand.NewSource(5)), 60)
	if _, degraded, err := dlog.exchange(router, 1, reqs); err != nil || len(degraded) != 0 {
		t.Fatalf("healthy round: degraded=%v err=%v", degraded, err)
	}

	faulty.Hang(fix.addrs[1])
	start := time.Now()
	_, degraded, err := dlog.exchange(router, 2, reqs)
	if err != nil {
		t.Fatalf("round with hung shard failed under Degrade: %v", err)
	}
	if len(degraded) != 1 || degraded[0] != 1 {
		t.Fatalf("degraded set %v, want [1]", degraded)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("degraded round took %v with a 200ms timeout", elapsed)
	}
}

// TestDegradeNeverMasksAuthFailure: with one shard's traffic tampered by
// a MITM, the round aborts with an authentication error even under
// ShardPolicy=Degrade and even though the tampered shard looks
// "unreachable" at the wire level — a forging shard must never be
// degraded around.
func TestDegradeNeverMasksAuthFailure(t *testing.T) {
	const shards = 4
	fix := startShards(t, shards)
	defer fix.stop()
	mitm := transport.NewMITM(fix.mem)
	// Tamper every server→client record after the handshake on shard 2.
	mitm.Intercept(fix.addrs[2], func(dir transport.Direction, index int, rec []byte) [][]byte {
		if dir == transport.ServerToClient && index >= 1 {
			rec[0] ^= 0x55
		}
		return [][]byte{rec}
	})
	router := fix.routerOn(t, mitm, 0, ShardDegrade, func(round uint64, shard int, addr string, err error) {
		t.Errorf("authentication failure on shard %d was degraded around: %v", shard, err)
	})
	defer router.Close()

	_, err := router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(7)), 100))
	if err == nil {
		t.Fatal("round with tampered shard traffic succeeded under Degrade")
	}
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("tampered shard traffic returned %v, want an ErrAuth-classified RemoteError", err)
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Addr != fix.addrs[2] {
		t.Fatalf("auth failure did not name the tampered shard: %v", err)
	}
}

// TestDegradeStillRejectsStaleRound is the replay regression: an
// authenticated shard that has already consumed a round number rejects
// the replay, and ShardPolicy=Degrade does NOT zero-fill around that
// rejection — the round aborts, because a consumed round must never be
// silently re-answered.
func TestDegradeStillRejectsStaleRound(t *testing.T) {
	const shards = 3
	fix := startShards(t, shards)
	defer fix.stop()
	dlog := &degradeLog{then: func(round uint64, shard int, addr string, err error) {
		t.Errorf("stale-round rejection on shard %d was degraded around: %v", shard, err)
	}}
	router := fix.routerOn(t, fix.mem, 0, ShardDegrade, dlog.hook)
	defer router.Close()

	reqs := mixedRequests(mrand.New(mrand.NewSource(13)), 40)
	if _, err := router.Exchange(5, reqs); err != nil {
		t.Fatalf("round 5: %v", err)
	}
	_, degraded, err := dlog.exchange(router, 5, reqs)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("replayed round under Degrade returned %v, want RemoteError", err)
	}
	if len(degraded) != 0 {
		t.Fatalf("replayed round reported degraded shards %v", degraded)
	}
	if errors.Is(err, transport.ErrAuth) {
		t.Fatalf("replay rejection misclassified as transport auth failure: %v", err)
	}
	// Fresh rounds still work.
	if _, err := router.Exchange(6, reqs); err != nil {
		t.Fatalf("round 6 after rejected replay: %v", err)
	}
}

// TestDegradeNeverMasksMalformedFrames: an authenticated shard whose
// response passes the record layer but fails the wire-frame parser is
// misbehaving, not unreachable — the round aborts under Degrade instead
// of zero-filling around it.
func TestDegradeNeverMasksMalformedFrames(t *testing.T) {
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

	dlog := &degradeLog{then: func(round uint64, shard int, addr string, err error) {
		t.Errorf("malformed-frame misbehavior on shard %d was degraded around: %v", shard, err)
	}}
	router, err := NewShardRouter(Config{
		Net: mem, ShardAddrs: []string{"garbage"}, ShardPubs: []box.PublicKey{evilPub},
		Priv: routerPriv, ShardPolicy: ShardDegrade, OnShardDegraded: dlog.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	_, degraded, err := dlog.exchange(router, 1, mixedRequests(mrand.New(mrand.NewSource(17)), 20))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("authenticated garbage frames returned %v, want RemoteError", err)
	}
	if !errors.Is(err, wire.ErrMalformed) {
		t.Fatalf("garbage frames returned %v, want wire.ErrMalformed in the chain", err)
	}
	if len(degraded) != 0 {
		t.Fatalf("garbage frames reported degraded shards %v", degraded)
	}
}

// TestDegradeAbortPolicyUnchanged: under the default Abort policy a dead
// shard still fails the round with a RemoteError naming it — Degrade is
// strictly opt-in.
func TestDegradeAbortPolicyUnchanged(t *testing.T) {
	const shards = 3
	fix := startShards(t, shards)
	defer fix.stop()
	faulty := transport.NewFaulty(fix.mem)
	router := fix.routerOn(t, faulty, 0, ShardAbort, nil)
	defer router.Close()

	faulty.Break(fix.addrs[0])
	_, err := router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(2)), 30))
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("dead shard under Abort returned %v, want RemoteError", err)
	}
	if remote.Addr != fix.addrs[0] {
		t.Fatalf("RemoteError names %q, want %q", remote.Addr, fix.addrs[0])
	}
}

// TestPlaintextShardRefusedByRouter: a shard that answers in the
// plaintext wire protocol (the pre-hardening behavior) cannot complete a
// round — the router's secured channel classifies its response as an
// authentication failure and aborts, even under ShardPolicy=Degrade.
// No request sub-batch ever reaches it: the only thing the router sends
// before authentication completes is the handshake hello.
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
		Priv: routerPriv, ShardTimeout: time.Second, ShardPolicy: ShardDegrade,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	_, err = router.Exchange(1, mixedRequests(mrand.New(mrand.NewSource(6)), 20))
	if err == nil {
		t.Fatal("round against a plaintext shard succeeded")
	}
	if !errors.Is(err, transport.ErrAuth) {
		t.Fatalf("plaintext shard response returned %v, want ErrAuth — it must not look like a degradable outage", err)
	}
}

// TestSilentPlaintextShardDegradesNotLeaks: a plaintext peer that hangs
// up without answering is indistinguishable from a dead shard, so
// Degrade zero-fills it — and its poison replies never surface, because
// no sub-batch was ever sent to it (the handshake hello is all it saw).
func TestSilentPlaintextShardDegradesNotLeaks(t *testing.T) {
	mem := transport.NewMem()
	_, routerPriv := testRouterKeys(t)
	plainPub, _ := box.KeyPairFromSeed([]byte("mute-shard"))
	l, err := mem.Listen("mute")
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
			// Reads the hello, says nothing, hangs up.
			go func() {
				buf := make([]byte, 256)
				raw.Read(buf)
				raw.Close()
			}()
		}
	}()

	dlog := &degradeLog{}
	router, err := NewShardRouter(Config{
		Net: mem, ShardAddrs: []string{"mute"}, ShardPubs: []box.PublicKey{plainPub},
		Priv: routerPriv, ShardTimeout: time.Second, ShardPolicy: ShardDegrade,
		OnShardDegraded: dlog.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	reqs := mixedRequests(mrand.New(mrand.NewSource(16)), 20)
	replies, degraded, err := dlog.exchange(router, 1, reqs)
	if err != nil {
		t.Fatalf("silent peer under Degrade: %v", err)
	}
	if len(degraded) != 1 || degraded[0] != 0 {
		t.Fatalf("degraded set %v, want [0]", degraded)
	}
	zero := make([]byte, convo.SealedSize)
	for i := range replies {
		if !bytes.Equal(replies[i], zero) {
			t.Fatalf("reply %d not zero-filled: the unauthenticated peer influenced the round", i)
		}
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

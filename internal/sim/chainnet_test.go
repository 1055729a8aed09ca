package sim

// The chain-wide crash/restart matrix: any node — the entry server, any
// chain server, any dead-drop shard — is killed and restarted before a
// round, while a round is in flight, and between pipelined rounds. The
// assertions are the full-chain restart-safety contract: a restarted
// node rejoins without AllowRoundReuse, round numbers never repeat at
// the dead-drop exchange, stale replays from a key-holding predecessor
// abort with an authenticated error, in-flight rounds fail with a
// RemoteError naming the dead hop, and pipelined windows drain instead
// of deadlocking. Controls without a StateDir document the replay
// window that durable round state closes.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vuvuzela/internal/client"
	"vuvuzela/internal/convo"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// assertStrictlyIncreasing fails if the exchange's round log ever
// repeats or regresses — the round-reuse signal the whole matrix exists
// to rule out.
func assertStrictlyIncreasing(t *testing.T, rounds []uint64) {
	t.Helper()
	for i := 1; i < len(rounds); i++ {
		if rounds[i] <= rounds[i-1] {
			t.Fatalf("exchange round log not strictly increasing: %v — a consumed round was re-run", rounds)
		}
	}
}

func wantRounds(t *testing.T, got []uint64, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered rounds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered rounds %v, want %v", got, want)
		}
	}
}

// autoClient connects one loopback client that answers every
// conversation announcement with a fresh fake request, for tests that
// drive rounds in the background. The returned closer severs it.
func autoClient(t *testing.T, cn *ChainNet) func() {
	t.Helper()
	raw, err := cn.cfg.Net.Dial(cn.EntryAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if msg.Kind != wire.KindAnnounce || msg.Proto != wire.ProtoConvo {
				continue
			}
			req, err := convo.BuildRequest(nil, msg.Round, nil, nil)
			if err != nil {
				return
			}
			o, _, err := onion.Wrap(req.Marshal(), msg.Round, 0, cn.Pubs, nil)
			if err != nil {
				return
			}
			if err := conn.Send(&wire.Message{
				Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: msg.Round, Body: [][]byte{o},
			}); err != nil {
				return
			}
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for cn.Coord.NumClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client registration timed out")
		}
		time.Sleep(time.Millisecond)
	}
	return func() {
		conn.Close()
		<-done
	}
}

// waitExchanged blocks until the given round reaches the last server's
// exchange — the signal that a gated round is in flight chain-deep.
func waitExchanged(t *testing.T, cn *ChainNet, round uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, r := range cn.ExchangedRounds() {
			if r == round {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("round %d never reached the exchange (log %v)", round, cn.ExchangedRounds())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// dialServerAsPredecessor opens an authenticated connection to chain
// server i with exactly the credentials its real predecessor holds —
// the replaying-peer worst case: for server 0 any key works (the entry
// role is untrusted), later positions require the predecessor's private
// key, which the harness exposes.
func dialServerAsPredecessor(t *testing.T, cn *ChainNet, i int) *wire.Conn {
	t.Helper()
	raw, err := cn.cfg.Net.Dial(cn.ServerAddrs[i])
	if err != nil {
		t.Fatal(err)
	}
	var conn *wire.Conn
	if i == 0 {
		_, priv := box.KeyPairFromSeed([]byte("matrix-fake-entry"))
		conn = wire.NewConn(transport.SecureClient(raw, priv, cn.Pubs[0]))
	} else {
		conn = wire.NewConn(transport.SecureClient(raw, cn.Privs[i-1], cn.Pubs[i]))
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// replayConvoRound sends an already-consumed conversation round
// straight at a server and requires the authenticated rejection.
func replayConvoRound(t *testing.T, conn *wire.Conn, round uint64) {
	t.Helper()
	if err := conn.Send(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: round}); err != nil {
		t.Fatalf("send replay of round %d: %v", round, err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatalf("recv replay of round %d: %v", round, err)
	}
	if resp.Kind != wire.KindError {
		t.Fatalf("replay of round %d got kind %d, want an authenticated error", round, resp.Kind)
	}
	if !strings.Contains(resp.ErrorString(), "round") {
		t.Fatalf("replay rejection %q does not name the round check", resp.ErrorString())
	}
}

// TestChainNetHealthyRounds is the harness smoke test: a fully
// networked 3-server + 2-shard chain with durable state everywhere runs
// pipelined rounds end to end and logs them in order.
func TestChainNetHealthyRounds(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 3, Shards: 2, Chain: fixedNoise(1), Entry: coordinator.Config{ConvoWindow: 2},
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	rounds, err := cn.RunRounds(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds(t, rounds, 1, 2, 3)
	wantRounds(t, cn.ExchangedRounds(), 1, 2, 3)
}

// TestChainRestartMatrix kills and restarts every node role in every
// phase. Each cell runs on a fresh chain with durable state: the
// restarted node must rejoin with no AllowRoundReuse anywhere, rounds
// attempted while a node is down must fail naming the dead hop, the
// exchange must never see a round number twice, and a stale replay
// aimed at the restarted node with its predecessor's own key must be
// rejected. The down-mid-round phase drives a round that dies
// mid-traversal at the already-dead hop (the live hops consume its
// number); the harsher variant — killing a node WHILE its round is
// held in flight chain-deep, so a peer's retry replays into the
// replacement — is the dedicated TestChainRestartMidRound* tests
// below.
func TestChainRestartMatrix(t *testing.T) {
	type role struct {
		name    string
		kill    func(cn *ChainNet)
		restart func(cn *ChainNet) error
		// deadHop is the address a round's failure must name while the
		// node is down ("" = the round cannot even be driven).
		deadHop func(cn *ChainNet) string
		// replayInto directs the post-restart stale-replay probe: a chain
		// position, or -1 for the shard, or -2 for none (entry).
		replayInto int
	}
	roles := []role{
		{"entry", func(cn *ChainNet) { cn.Kill(cn.EntryAddr) }, func(cn *ChainNet) error { return cn.Restart(cn.EntryAddr) }, func(*ChainNet) string { return "" }, -2},
		{"server-head", func(cn *ChainNet) { cn.Kill(cn.ServerAddrs[0]) }, func(cn *ChainNet) error { return cn.Restart(cn.ServerAddrs[0]) }, func(cn *ChainNet) string { return cn.ServerAddrs[0] }, 0},
		{"server-middle", func(cn *ChainNet) { cn.Kill(cn.ServerAddrs[1]) }, func(cn *ChainNet) error { return cn.Restart(cn.ServerAddrs[1]) }, func(cn *ChainNet) string { return cn.ServerAddrs[1] }, 1},
		{"server-last", func(cn *ChainNet) { cn.Kill(cn.ServerAddrs[2]) }, func(cn *ChainNet) error { return cn.Restart(cn.ServerAddrs[2]) }, func(cn *ChainNet) string { return cn.ServerAddrs[2] }, 2},
		{"shard", func(cn *ChainNet) { cn.Kill(cn.ShardAddrs[1]) }, func(cn *ChainNet) error { return cn.Restart(cn.ShardAddrs[1]) }, func(cn *ChainNet) string { return cn.ShardAddrs[1] }, -1},
	}
	phases := []string{"before-rounds", "down-mid-round", "between-pipelined"}
	if testing.Short() {
		phases = []string{"down-mid-round"}
	}

	for _, ro := range roles {
		for _, phase := range phases {
			t.Run(ro.name+"/"+phase, func(t *testing.T) {
				defer LeakCheck(t)()
				cn, err := NewChainNet(ChainNetConfig{
					Servers: 3, Shards: 2, Chain: fixedNoise(1), Entry: coordinator.Config{ConvoWindow: 2},
					StateDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer cn.Close()

				switch phase {
				case "before-rounds":
					if err := ro.restart(cn); err != nil {
						t.Fatalf("restart: %v", err)
					}
					rounds, err := cn.RunRounds(2, 3)
					if err != nil {
						t.Fatalf("rounds after restart: %v", err)
					}
					wantRounds(t, rounds, 1, 2, 3)

				case "down-mid-round":
					rounds, err := cn.RunRounds(1, 1)
					if err != nil {
						t.Fatalf("healthy round: %v", err)
					}
					wantRounds(t, rounds, 1)

					ro.kill(cn)
					_, err = cn.RunRounds(1, 1)
					if err == nil {
						t.Fatalf("round with %s dead succeeded", ro.name)
					}
					if hop := ro.deadHop(cn); hop != "" && !strings.Contains(err.Error(), hop) {
						t.Fatalf("failure %q does not name the dead hop %s", err, hop)
					}

					if err := ro.restart(cn); err != nil {
						t.Fatalf("restart: %v", err)
					}
					after, err := cn.RunRounds(2, 2)
					if err != nil {
						t.Fatalf("rounds after restart: %v", err)
					}
					if ro.name == "entry" {
						// The entry died before announcing round 2, so its
						// durable counter resumes there.
						wantRounds(t, after, 2, 3)
					} else {
						// Round 2's number was burned by the coordinator
						// while the node was down; numbering continues.
						wantRounds(t, after, 3, 4)
					}

				case "between-pipelined":
					rounds, err := cn.RunRounds(2, 3)
					if err != nil {
						t.Fatalf("first window: %v", err)
					}
					wantRounds(t, rounds, 1, 2, 3)
					if err := ro.restart(cn); err != nil {
						t.Fatalf("restart: %v", err)
					}
					after, err := cn.RunRounds(2, 3)
					if err != nil {
						t.Fatalf("second window: %v", err)
					}
					wantRounds(t, after, 4, 5, 6)
				}

				assertStrictlyIncreasing(t, cn.ExchangedRounds())

				// The restarted node, faced with a stale round from a peer
				// holding its real predecessor's key, must refuse it with
				// an authenticated error.
				switch {
				case ro.replayInto >= 0:
					conn := dialServerAsPredecessor(t, cn, ro.replayInto)
					replayConvoRound(t, conn, 1)
				case ro.replayInto == -1:
					raw, err := cn.cfg.Net.Dial(cn.ShardAddrs[1])
					if err != nil {
						t.Fatal(err)
					}
					conn := wire.NewConn(transport.SecureClient(raw, cn.Privs[len(cn.Privs)-1], cn.ShardPubs[1]))
					defer conn.Close()
					if err := conn.Send(wire.ShardRoundMessage(1, 1, nil)); err != nil {
						t.Fatal(err)
					}
					resp, err := conn.Recv()
					if err != nil {
						t.Fatal(err)
					}
					if resp.Kind != wire.KindError || !strings.Contains(resp.ErrorString(), "round") {
						t.Fatalf("shard replay got kind %d (%q), want a round rejection", resp.Kind, resp.ErrorString())
					}
				}
			})
		}
	}
}

// gatedChainNet builds a chain whose shard leg runs through a
// transport.Faulty, so a test can hold a round in flight chain-deep
// (Hang), kill a node upstream, and heal. The returned settle func
// sleeps long enough for the held round to unwind through the shard
// timeout after the gate opens.
func gatedChainNet(t *testing.T) (*ChainNet, *transport.Faulty, func()) {
	t.Helper()
	const shardTimeout = 300 * time.Millisecond
	faulty := transport.NewFaulty(transport.NewMem())
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 3, Shards: 1, Net: faulty,
		Chain:    mixnet.Config{ConvoNoise: noise.Fixed{N: 1}, ShardTimeout: shardTimeout},
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	settle := func() { time.Sleep(4 * shardTimeout) }
	return cn, faulty, settle
}

// TestChainRestartMidRoundServer: a middle chain server is killed and
// replaced WHILE a round is held in flight downstream of it. Its
// predecessor notices the severed connection and retries the round into
// the replacement — a key-holding peer replaying an in-flight round —
// which must be refused from the durable counter: the round fails with
// a RemoteError naming the hop, and the chain resumes on the next round
// with no number ever exchanged twice.
func TestChainRestartMidRoundServer(t *testing.T) {
	defer LeakCheck(t)()
	cn, faulty, settle := gatedChainNet(t)
	defer cn.Close()

	if _, err := cn.RunRounds(1, 1); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	closeClient := autoClient(t, cn)
	defer closeClient()
	faulty.Hang(cn.ShardAddrs[0])
	res := make(chan error, 1)
	go func() {
		_, _, err := cn.Coord.RunConvoRound(context.Background())
		res <- err
	}()
	waitExchanged(t, cn, 2) // round 2 is now held at the shard leg

	if err := cn.Restart(cn.ServerAddrs[1]); err != nil {
		t.Fatalf("mid-round restart: %v", err)
	}
	err := <-res
	if err == nil {
		t.Fatal("round survived its server being killed mid-flight")
	}
	var remote *mixnet.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("mid-round kill returned %v, want a RemoteError", err)
	}
	if !strings.Contains(err.Error(), cn.ServerAddrs[1]) {
		t.Fatalf("failure %q does not name the restarted hop", err)
	}
	if !strings.Contains(err.Error(), "round") {
		t.Fatalf("failure %q does not carry the replay rejection — the retry was not refused from the durable counter", err)
	}

	closeClient() // RunRounds brings its own clients
	faulty.Restore(cn.ShardAddrs[0])
	settle() // let the held round unwind through the shard timeout
	rounds, err := cn.RunRounds(1, 2)
	if err != nil {
		t.Fatalf("rounds after mid-round restart: %v", err)
	}
	wantRounds(t, rounds, 3, 4)
	assertStrictlyIncreasing(t, cn.ExchangedRounds())

	// And the explicit stale replay still aborts.
	replayConvoRound(t, dialServerAsPredecessor(t, cn, 1), 2)
}

// TestChainRestartMidRoundHead: the chain head is killed mid-flight.
// The coordinator's own retry resends the in-flight round into the
// replacement head, which must refuse it from the durable counter — the
// entry leg's version of the key-holding replay.
func TestChainRestartMidRoundHead(t *testing.T) {
	defer LeakCheck(t)()
	cn, faulty, settle := gatedChainNet(t)
	defer cn.Close()

	if _, err := cn.RunRounds(1, 1); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	closeClient := autoClient(t, cn)
	defer closeClient()
	faulty.Hang(cn.ShardAddrs[0])
	res := make(chan error, 1)
	go func() {
		_, _, err := cn.Coord.RunConvoRound(context.Background())
		res <- err
	}()
	waitExchanged(t, cn, 2)

	if err := cn.Restart(cn.ServerAddrs[0]); err != nil {
		t.Fatalf("mid-round restart: %v", err)
	}
	err := <-res
	var remote *mixnet.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("mid-round head kill returned %v, want a RemoteError", err)
	}
	if !strings.Contains(err.Error(), "round") {
		t.Fatalf("failure %q does not carry the replay rejection", err)
	}

	closeClient()
	faulty.Restore(cn.ShardAddrs[0])
	settle()
	rounds, err := cn.RunRounds(1, 1)
	if err != nil {
		t.Fatalf("round after mid-round restart: %v", err)
	}
	wantRounds(t, rounds, 3)
	assertStrictlyIncreasing(t, cn.ExchangedRounds())
	replayConvoRound(t, dialServerAsPredecessor(t, cn, 0), 2)
}

// TestChainRestartMidRoundLastServer: the last server (shard router)
// is killed and replaced while its round is held in flight on its own
// shard leg. Its predecessor retries the round into the replacement,
// which must refuse it from the durable counter even though the
// replacement never ran the round itself.
func TestChainRestartMidRoundLastServer(t *testing.T) {
	defer LeakCheck(t)()
	cn, faulty, settle := gatedChainNet(t)
	defer cn.Close()

	if _, err := cn.RunRounds(1, 1); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	closeClient := autoClient(t, cn)
	defer closeClient()
	faulty.Hang(cn.ShardAddrs[0])
	res := make(chan error, 1)
	go func() {
		_, _, err := cn.Coord.RunConvoRound(context.Background())
		res <- err
	}()
	waitExchanged(t, cn, 2) // round 2 committed at the last server, held on its shard leg

	last := len(cn.Servers) - 1
	if err := cn.Restart(cn.ServerAddrs[last]); err != nil {
		t.Fatalf("mid-round restart: %v", err)
	}
	err := <-res
	if err == nil {
		t.Fatal("round survived its last server being killed mid-flight")
	}
	var remote *mixnet.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("mid-round last-server kill returned %v, want a RemoteError", err)
	}
	if !strings.Contains(err.Error(), cn.ServerAddrs[last]) {
		t.Fatalf("failure %q does not name the restarted hop", err)
	}
	if !strings.Contains(err.Error(), "round") {
		t.Fatalf("failure %q does not carry the replay rejection", err)
	}

	closeClient()
	faulty.Restore(cn.ShardAddrs[0])
	settle()
	rounds, err := cn.RunRounds(1, 1)
	if err != nil {
		t.Fatalf("round after mid-round restart: %v", err)
	}
	wantRounds(t, rounds, 3)
	assertStrictlyIncreasing(t, cn.ExchangedRounds())
	replayConvoRound(t, dialServerAsPredecessor(t, cn, last), 2)
}

// TestChainRestartLastServerCDN: the last server hosts the invitation
// CDN, so its restart takes down the CDN connections its clients hold.
// Alice invites Bob in a dialing round, the last server restarts, and
// Alice invites Bob again: Bob must find the second invitation too, in
// the new process's store, not miss it reading the dead one's, which no
// round publishes to any more.
func TestChainRestartLastServerCDN(t *testing.T) { restartLastServerCDN(t) }

func restartLastServerCDN(t *testing.T) {
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	dial := func(seed string) *client.Client {
		pub, priv := box.KeyPairFromSeed([]byte(seed))
		c, err := client.Dial(client.Config{
			Pub: pub, Priv: priv, ChainPubs: cn.Pubs,
			Net: cn.cfg.Net, EntryAddr: cn.EntryAddr, CDNAddr: cn.CDNAddr,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	alice, bob := dial("cdn-alice"), dial("cdn-bob")
	defer alice.Close()
	defer bob.Close()

	for i := 0; i < 2; i++ {
		if i == 1 {
			if err := cn.Restart(cn.ServerAddrs[1]); err != nil {
				t.Fatal(err)
			}
		}
		if err := cn.WaitReady(2, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		alice.DialUser(bob.PublicKey())
		round, n, err := cn.Coord.RunDialRound(context.Background())
		if err != nil || n != 2 {
			t.Fatalf("dialing round: %d participants, err %v", n, err)
		}
		// Bob's DialRoundEvent follows the scan of his bucket.
		invited := false
		for scanned := false; !scanned; {
			select {
			case e := <-bob.Events():
				switch e := e.(type) {
				case client.InvitationEvent:
					invited = invited || e.Round == round && e.From == alice.PublicKey()
				case client.DialRoundEvent:
					scanned = e.Round == round
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("bob did not finish dialing round %d", round)
			}
		}
		if !invited {
			t.Fatalf("dialing round %d (restarts of the last server: %d): bob found no invitation from alice", round, i)
		}
	}
}

// TestChainRestartMidRoundEntry: the coordinator is killed while its
// round is held in flight chain-deep, then restarted from its durable
// counter. The replacement resumes numbering AFTER the in-flight round
// — which the chain consumed — instead of re-issuing it.
func TestChainRestartMidRoundEntry(t *testing.T) {
	defer LeakCheck(t)()
	cn, faulty, settle := gatedChainNet(t)
	defer cn.Close()

	if _, err := cn.RunRounds(1, 1); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	closeClient := autoClient(t, cn)
	defer closeClient()
	faulty.Hang(cn.ShardAddrs[0])
	oldCoord := cn.Coord
	res := make(chan error, 1)
	go func() {
		_, _, err := oldCoord.RunConvoRound(context.Background())
		res <- err
	}()
	waitExchanged(t, cn, 2) // the chain has consumed round 2

	if err := cn.Restart(cn.EntryAddr); err != nil {
		t.Fatalf("mid-round entry restart: %v", err)
	}
	if err := <-res; err == nil {
		t.Fatal("in-flight round survived its coordinator dying")
	}

	faulty.Restore(cn.ShardAddrs[0])
	settle()
	rounds, err := cn.RunRounds(1, 1)
	if err != nil {
		t.Fatalf("round after entry restart: %v", err)
	}
	// Round 2 was consumed chain-wide while only ever announced by the
	// dead process: the replacement must continue at 3.
	wantRounds(t, rounds, 3)
	assertStrictlyIncreasing(t, cn.ExchangedRounds())
}

// TestChainRestartEntryWithoutStateWedges is the control for the
// coordinator's persistence: a stateless entry restart re-issues round
// 1 into a chain that already consumed it, and the chain's
// strictly-increasing check rejects it — without -round-state on the
// entry, a restart wedges the deployment.
func TestChainRestartEntryWithoutStateWedges(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, Shards: 1, Chain: fixedNoise(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	rounds, err := cn.RunRounds(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds(t, rounds, 1, 2)

	if err := cn.Restart(cn.EntryAddr); err != nil {
		t.Fatalf("restart: %v", err)
	}
	_, err = cn.RunRounds(1, 1)
	if err == nil {
		t.Fatal("re-issued round 1 was accepted by a chain that already consumed it")
	}
	var remote *mixnet.RemoteError
	if !errors.As(err, &remote) || !strings.Contains(err.Error(), "round") {
		t.Fatalf("re-issued round failed with %v, want the chain's replay rejection", err)
	}
}

// TestChainFullRestartReplayProtection: every node in the deployment —
// entry, all three chain servers, both shards — is killed and replaced,
// and the chain still refuses to re-run any consumed round: new rounds
// continue the numbering, and a replayed round 1 is rejected at the
// head with an authenticated error.
func TestChainFullRestartReplayProtection(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 3, Shards: 2, Chain: fixedNoise(1), Entry: coordinator.Config{ConvoWindow: 2},
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	rounds, err := cn.RunRounds(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds(t, rounds, 1, 2)

	for i := range cn.Servers {
		if err := cn.Restart(cn.ServerAddrs[i]); err != nil {
			t.Fatalf("restart server %d: %v", i, err)
		}
	}
	for i := range cn.Shards {
		if err := cn.Restart(cn.ShardAddrs[i]); err != nil {
			t.Fatalf("restart shard %d: %v", i, err)
		}
	}
	if err := cn.Restart(cn.EntryAddr); err != nil {
		t.Fatalf("restart entry: %v", err)
	}

	after, err := cn.RunRounds(2, 2)
	if err != nil {
		t.Fatalf("rounds after full restart: %v", err)
	}
	wantRounds(t, after, 3, 4)
	wantRounds(t, cn.ExchangedRounds(), 1, 2, 3, 4)

	replayConvoRound(t, dialServerAsPredecessor(t, cn, 0), 1)
}

// TestChainFullRestartWithoutStateReplays is the control: with no
// durable state anywhere, the same full restart resets every counter
// and a replayed round 1 runs the exchange again — the chain-wide
// replay window this PR closes. The exchange log shows the repeat.
func TestChainFullRestartWithoutStateReplays(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{Servers: 3, Shards: 2, Chain: fixedNoise(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	rounds, err := cn.RunRounds(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds(t, rounds, 1, 2)

	for i := range cn.Servers {
		if err := cn.Restart(cn.ServerAddrs[i]); err != nil {
			t.Fatalf("restart server %d: %v", i, err)
		}
	}
	for i := range cn.Shards {
		if err := cn.Restart(cn.ShardAddrs[i]); err != nil {
			t.Fatalf("restart shard %d: %v", i, err)
		}
	}
	if err := cn.Restart(cn.EntryAddr); err != nil {
		t.Fatalf("restart entry: %v", err)
	}

	replayed, err := cn.RunRounds(1, 1)
	if err != nil {
		t.Fatalf("memory-only chain rejected the restart replay (%v) — control expectation changed?", err)
	}
	wantRounds(t, replayed, 1)
	wantRounds(t, cn.ExchangedRounds(), 1, 2, 1) // round 1 ran twice
}

// TestChainRestartPipelinedWindowDrains: a chain server dies while a
// ConvoWindow=3 pipeline has rounds both in the chain and still
// collecting. The pipeline must fail fast (no deadlock), and after the
// restart new pipelined rounds run cleanly with no round reuse.
func TestChainRestartPipelinedWindowDrains(t *testing.T) {
	defer LeakCheck(t)()
	const shardTimeout = 300 * time.Millisecond
	faulty := transport.NewFaulty(transport.NewMem())
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 3, Shards: 1, Net: faulty,
		Chain:    mixnet.Config{ConvoNoise: noise.Fixed{N: 1}, ShardTimeout: shardTimeout},
		Entry:    coordinator.Config{ConvoWindow: 3, SubmitTimeout: 100 * time.Millisecond},
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	closeClient := autoClient(t, cn)
	defer closeClient()
	faulty.Hang(cn.ShardAddrs[0])
	res := make(chan error, 1)
	go func() {
		_, err := cn.Coord.RunConvoRounds(context.Background(), 4)
		res <- err
	}()
	waitExchanged(t, cn, 1) // round 1 held at the shard leg; 2 and 3 collecting behind it

	if err := cn.Restart(cn.ServerAddrs[1]); err != nil {
		t.Fatalf("mid-window restart: %v", err)
	}
	select {
	case err := <-res:
		if err == nil {
			t.Fatal("pipelined window reported success across a dead server")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("pipelined window deadlocked across the restart")
	}

	closeClient()
	faulty.Restore(cn.ShardAddrs[0])
	time.Sleep(4 * shardTimeout)
	if _, err := cn.RunRounds(1, 2); err != nil {
		t.Fatalf("pipelined rounds after restart: %v", err)
	}
	assertStrictlyIncreasing(t, cn.ExchangedRounds())
}

// fixedNoise is a chain template whose mixing servers each add exactly mu
// conversation noise requests per round.
func fixedNoise(mu int) mixnet.Config {
	return mixnet.Config{ConvoNoise: noise.Fixed{N: mu}}
}

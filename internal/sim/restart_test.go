package sim

// Crash/restart fault injection for the durable shard round state: a
// shard process dies mid-deployment and a fresh one takes over on the
// same address with the same key and round-state file. With persistence
// the shard rejoins the chain without AllowRoundReuse — new rounds
// proceed, stale-round replays still abort — and without persistence the
// replay window reopens, which the control test documents.

import (
	"strings"
	"testing"

	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// dialShardAsRouter opens an authenticated connection to shard i using
// the router's identity — what a (resurrected or replaying) last chain
// server would hold.
func dialShardAsRouter(t *testing.T, cn *ChainNet, i int) *wire.Conn {
	t.Helper()
	raw, err := cn.cfg.Net.Dial(cn.ShardAddrs[i])
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(transport.SecureClient(raw, cn.Privs[len(cn.Privs)-1], cn.ShardPubs[i]))
	t.Cleanup(func() { conn.Close() })
	return conn
}

// shardRoundTrip sends one shard-round frame and returns the response.
func shardRoundTrip(t *testing.T, conn *wire.Conn, round uint64, shard uint32) *wire.Message {
	t.Helper()
	if err := conn.Send(wire.ShardRoundMessage(round, shard, nil)); err != nil {
		t.Fatalf("send round %d: %v", round, err)
	}
	resp, err := conn.Recv()
	if err != nil {
		t.Fatalf("recv round %d: %v", round, err)
	}
	return resp
}

// TestShardCrashRestartRejoins: with StateDir set, a crashed-and-
// restarted shard resumes its round counter from disk and the chain
// continues over it — no AllowRoundReuse anywhere, and the router heals
// its connection by lazy redial.
func TestShardCrashRestartRejoins(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 2, Shards: 2, Chain: fixedNoise(1),
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	for round := uint64(1); round <= 2; round++ {
		if err := runRound(t, cn, round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	if err := cn.Restart(cn.ShardAddrs[1]); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := cn.Shards[1].LastRound(); got != 2 {
		t.Fatalf("restarted shard resumed at round %d, want 2 (from disk)", got)
	}

	// The chain proceeds: round 3 exchanges real messages through the
	// restarted shard (every shard consumes every round number).
	if err := runRound(t, cn, 3); err != nil {
		t.Fatalf("round 3 after restart: %v", err)
	}
	if got := cn.Shards[1].LastRound(); got != 3 {
		t.Fatalf("restarted shard at round %d after round 3, want 3", got)
	}
}

// TestShardRestartStaleReplayAborts: after the restart, replaying an
// already-consumed round — even from a peer holding the real router
// key — is rejected from the durable counter, and the rejection is an
// authenticated shard-side refusal (KindError), which fails the round.
func TestShardRestartStaleReplayAborts(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 2, Shards: 2, Chain: fixedNoise(1),
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	for round := uint64(1); round <= 2; round++ {
		if err := runRound(t, cn, round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := cn.Restart(cn.ShardAddrs[0]); err != nil {
		t.Fatalf("restart: %v", err)
	}

	conn := dialShardAsRouter(t, cn, 0)
	for _, stale := range []uint64{1, 2} {
		resp := shardRoundTrip(t, conn, stale, 0)
		if resp.Kind != wire.KindError {
			t.Fatalf("stale round %d replay got kind %d, want error", stale, resp.Kind)
		}
		if !strings.Contains(resp.ErrorString(), "round") {
			t.Fatalf("stale round %d rejection %q does not name the cause", stale, resp.ErrorString())
		}
	}
	// The connection survives the rejections and a fresh round passes.
	if resp := shardRoundTrip(t, conn, 3, 0); resp.Kind != wire.KindShardReply {
		t.Fatalf("round 3 after rejections got kind %d, want shard reply", resp.Kind)
	}
}

// TestShardRestartWithoutStateReplays is the control: without a durable
// store, the same crash/restart resets the counter to zero and a stale
// round replays successfully — the §4.2 replay window the round-state
// persistence closes.
func TestShardRestartWithoutStateReplays(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, Shards: 2, Chain: fixedNoise(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	for round := uint64(1); round <= 2; round++ {
		if err := runRound(t, cn, round); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if err := cn.Restart(cn.ShardAddrs[0]); err != nil {
		t.Fatalf("restart: %v", err)
	}
	conn := dialShardAsRouter(t, cn, 0)
	if resp := shardRoundTrip(t, conn, 1, 0); resp.Kind != wire.KindShardReply {
		t.Fatalf("memory-only restart rejected the replay (kind %d) — control expectation changed?", resp.Kind)
	}
}

// TestShardCrashDuringOutageThenRejoin: the shard dies (connection-level
// fault) and every round while it is down fails naming it; then a
// restarted process rejoins behind on rounds — its durable counter is
// older than the chain's current round, which is exactly the rejoin case,
// and must be accepted while stale rounds are still refused.
func TestShardCrashDuringOutageThenRejoin(t *testing.T) {
	defer LeakCheck(t)()
	faulty := transport.NewFaulty(transport.NewMem())
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 2, Shards: 2, Net: faulty, Chain: fixedNoise(1), StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	if err := runRound(t, cn, 1); err != nil {
		t.Fatalf("round 1: %v", err)
	}

	// Crash: sever the shard and blackhole its address. Rounds 2 and 3
	// fail, each naming it.
	faulty.Break(cn.ShardAddrs[0])
	cn.Kill(cn.ShardAddrs[0])
	for round := uint64(2); round <= 3; round++ {
		wantRemoteVia(t, runRound(t, cn, round), cn.ServerAddrs[1], cn.ShardAddrs[0], "shard 0")
	}

	// Recover: restart the process and heal the network. The shard's
	// durable counter says 1; the next chain round is 4 — it must rejoin
	// cleanly.
	faulty.Restore(cn.ShardAddrs[0])
	if err := cn.Restart(cn.ShardAddrs[0]); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := cn.Shards[0].LastRound(); got != 1 {
		t.Fatalf("restarted shard resumed at round %d, want 1", got)
	}
	if err := runRound(t, cn, 4); err != nil {
		t.Fatalf("round 4 after rejoin: %v", err)
	}
	// And the missed rounds are gone for good: replaying one is refused.
	conn := dialShardAsRouter(t, cn, 0)
	if resp := shardRoundTrip(t, conn, 1, 0); resp.Kind != wire.KindError {
		t.Fatalf("stale round replay after rejoin got kind %d, want error", resp.Kind)
	}
}

// TestRestartShardValidation: restarting a shard that does not exist is
// an error, not a panic.
func TestRestartShardValidation(t *testing.T) {
	cn, err := NewChainNet(ChainNetConfig{Servers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if err := cn.Restart("shard-5"); err == nil {
		t.Fatal("restarting shard 5 of 1 succeeded")
	}
	if err := cn.Restart("shard--1"); err == nil {
		t.Fatal("restarting shard -1 succeeded")
	}
}

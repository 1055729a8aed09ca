package mixnet

// Unit tests for the durable round counters of the shard server and the
// chain server: the process-level crash/restart semantics, independent
// of the network (the sim package drives the same paths through a full
// chain).

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

func shardWithState(t *testing.T, store *roundstate.Counters) *ShardServer {
	t.Helper()
	routerPub, _ := box.KeyPairFromSeed([]byte("rs-router"))
	_, priv := box.KeyPairFromSeed([]byte("rs-shard"))
	ss, err := NewShardServer(ShardConfig{
		Index: 0, NumShards: 1,
		Identity:   priv,
		Authorized: []box.PublicKey{routerPub},
		RoundState: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestShardServerRoundStatePersists: a restarted shard server seeded
// from the same file refuses every round the previous process consumed
// and accepts the next one — no AllowRoundReuse involved.
func TestShardServerRoundStatePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0.round")
	store, err := roundstate.OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	ss := shardWithState(t, store)
	for _, r := range []uint64{1, 2} {
		if _, err := ss.ExchangeRound(r, nil); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if _, err := ss.ExchangeRound(2, nil); !errors.Is(err, ErrRoundReplay) {
		t.Fatalf("same-process replay: %v, want ErrRoundReplay", err)
	}

	// "Crash": the dying process's advisory lock is released (implicit
	// on real process death; explicit here), and a new process opens
	// the same file.
	store.Close()
	store2, err := roundstate.OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	ss2 := shardWithState(t, store2)
	if got := ss2.LastRound(); got != 2 {
		t.Fatalf("restarted server resumed at %d, want 2", got)
	}
	for _, stale := range []uint64{1, 2} {
		if _, err := ss2.ExchangeRound(stale, nil); !errors.Is(err, ErrRoundReplay) {
			t.Fatalf("post-restart replay of %d: %v, want ErrRoundReplay", stale, err)
		}
	}
	if _, err := ss2.ExchangeRound(3, nil); err != nil {
		t.Fatalf("round 3 after restart: %v", err)
	}

	// Control: a server without a store starts over — the window
	// persistence closes.
	ss3 := shardWithState(t, nil)
	if _, err := ss3.ExchangeRound(1, nil); err != nil {
		t.Fatalf("memory-only server rejected round 1 after 'restart': %v", err)
	}
}

// TestShardServerRoundStateWriteFailureAborts: if the counter cannot be
// committed, the round fails — the shard never exchanges a round it
// could later be made to replay — and the in-memory counter does not
// advance past what the disk recorded.
func TestShardServerRoundStateWriteFailureAborts(t *testing.T) {
	// A store whose directory vanishes after Open: every Commit fails.
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := roundstate.OpenCounters(filepath.Join(dir, "shard-0.round"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ss := shardWithState(t, store)
	if _, err := ss.ExchangeRound(1, nil); err == nil {
		t.Fatal("round exchanged without a durable commit")
	}
	if got := ss.LastRound(); got != 0 {
		t.Fatalf("in-memory counter advanced to %d past a failed commit", got)
	}
}

// lastServerWithState builds a single-server chain (the server is last,
// so rounds run fully in-process) over deterministic keys with the
// given durable counter store.
func lastServerWithState(t *testing.T, store *roundstate.Counters) *Server {
	t.Helper()
	pub, priv := box.KeyPairFromSeed([]byte("rs-chain"))
	srv, err := NewServer(Config{
		Position:   0,
		ChainPubs:  []box.PublicKey{pub},
		Priv:       priv,
		RoundState: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestChainServerRoundStatePersists: a restarted chain server seeded
// from the same counters file refuses every round the previous process
// consumed — for both protocols independently — and accepts the next
// ones, with no AllowRoundReuse involved.
func TestChainServerRoundStatePersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "server-0.rounds")
	store, err := roundstate.OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	srv := lastServerWithState(t, store)
	for _, r := range []uint64{1, 2} {
		if _, err := srv.ConvoRound(r, nil); err != nil {
			t.Fatalf("convo round %d: %v", r, err)
		}
	}
	if err := srv.DialRound(1, 1, nil); err != nil {
		t.Fatalf("dial round 1: %v", err)
	}
	if _, err := srv.ConvoRound(2, nil); !errors.Is(err, ErrRoundReplay) {
		t.Fatalf("same-process convo replay: %v, want ErrRoundReplay", err)
	}

	// "Crash": release the dying process's advisory lock (implicit on
	// real process death) and reopen the file as a fresh process would.
	store.Close()
	store2, err := roundstate.OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	srv2 := lastServerWithState(t, store2)
	if got := srv2.LastRound(wire.ProtoConvo); got != 2 {
		t.Fatalf("restarted server resumed convo at %d, want 2", got)
	}
	if got := srv2.LastRound(wire.ProtoDial); got != 1 {
		t.Fatalf("restarted server resumed dial at %d, want 1", got)
	}
	for _, stale := range []uint64{1, 2} {
		if _, err := srv2.ConvoRound(stale, nil); !errors.Is(err, ErrRoundReplay) {
			t.Fatalf("post-restart convo replay of %d: %v, want ErrRoundReplay", stale, err)
		}
	}
	if err := srv2.DialRound(1, 1, nil); !errors.Is(err, ErrRoundReplay) {
		t.Fatalf("post-restart dial replay: %v, want ErrRoundReplay", err)
	}
	if _, err := srv2.ConvoRound(3, nil); err != nil {
		t.Fatalf("convo round 3 after restart: %v", err)
	}
	if err := srv2.DialRound(2, 1, nil); err != nil {
		t.Fatalf("dial round 2 after restart: %v", err)
	}

	// Control: a server without a store starts over — the window
	// persistence closes.
	srv3 := lastServerWithState(t, nil)
	if _, err := srv3.ConvoRound(1, nil); err != nil {
		t.Fatalf("memory-only server rejected round 1 after 'restart': %v", err)
	}
}

// TestChainServerRoundStateWriteFailureAborts: if a chain server cannot
// commit the round counter, the round fails before any onion is
// unwrapped and the in-memory counter does not advance past what the
// disk recorded.
func TestChainServerRoundStateWriteFailureAborts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := roundstate.OpenCounters(filepath.Join(dir, "server-0.rounds"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	srv := lastServerWithState(t, store)
	if _, err := srv.ConvoRound(1, nil); err == nil {
		t.Fatal("round processed without a durable commit")
	}
	if got := srv.LastRound(wire.ProtoConvo); got != 0 {
		t.Fatalf("in-memory counter advanced to %d past a failed commit", got)
	}
}

// TestNewServerRejectsReuseWithState: AllowRoundReuse and a RoundState
// store contradict each other and are refused at construction.
func TestNewServerRejectsReuseWithState(t *testing.T) {
	store, err := roundstate.OpenCounters(filepath.Join(t.TempDir(), "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	pub, priv := box.KeyPairFromSeed([]byte("rs-conflict"))
	if _, err := NewServer(Config{
		Position:        0,
		ChainPubs:       []box.PublicKey{pub},
		Priv:            priv,
		AllowRoundReuse: true,
		RoundState:      store,
	}); err == nil {
		t.Fatal("NewServer accepted AllowRoundReuse together with a RoundState store")
	}
}

// TestRoundStateConcurrentDelivery: two connections deliver one round to
// a served last server, and to a served shard, at the same moment. The
// check and its commit are one critical section (roundstate.Counters'
// Advance), so exactly one delivery runs the round and the other is told,
// in an authenticated KindError, that it is a replay — with the counter
// in memory and with it in a file.
func TestRoundStateConcurrentDelivery(t *testing.T) {
	for _, durable := range []bool{false, true} {
		open := func(name string) *roundstate.Counters {
			if !durable {
				return nil
			}
			store, err := roundstate.OpenCounters(filepath.Join(t.TempDir(), name))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { store.Close() })
			return store
		}
		mem := transport.NewMem()
		serve := func(addr string, serve func(net.Listener) error) {
			l, err := mem.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			go serve(l)
		}

		srv := lastServerWithState(t, open("server-0.rounds"))
		defer srv.Close()
		serve("last", srv.Serve)
		deliverTwice(t, wire.KindReplies, func() *wire.Conn {
			return dialEntry(t, mem, "last", srv.cfg.ChainPubs[0])
		}, func(round uint64) *wire.Message {
			return &wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: round}
		})

		ss := shardWithState(t, open("shard-0.round"))
		defer ss.Close()
		serve("shard", ss.Serve)
		_, routerPriv := box.KeyPairFromSeed([]byte("rs-router"))
		shardPub, _ := box.KeyPairFromSeed([]byte("rs-shard"))
		deliverTwice(t, wire.KindShardReply, func() *wire.Conn {
			raw, err := mem.Dial("shard")
			if err != nil {
				t.Fatal(err)
			}
			return wire.NewConn(transport.SecureClient(raw, routerPriv, shardPub))
		}, func(round uint64) *wire.Message { return wire.ShardRoundMessage(round, 0, nil) })
	}
}

// deliverTwice opens two connections, runs one round of its own on each
// (so both are past the handshake), then sends each of five further
// rounds down both at once: every time one answer must be of kind ok and
// the other a KindError carrying ErrRoundReplay.
func deliverTwice(t *testing.T, ok wire.Kind, dial func() *wire.Conn, round func(uint64) *wire.Message) {
	t.Helper()
	conns := [2]*wire.Conn{dial(), dial()}
	rpc := func(c *wire.Conn, r uint64) *wire.Message {
		if err := c.Send(round(r)); err != nil {
			t.Error(err)
			return &wire.Message{}
		}
		resp, err := c.Recv()
		if err != nil {
			t.Error(err)
			return &wire.Message{}
		}
		return resp
	}
	for i, c := range conns {
		defer c.Close()
		if resp := rpc(c, uint64(i+1)); resp.Kind != ok {
			t.Fatalf("round %d: kind %d: %s", i+1, resp.Kind, resp.ErrorString())
		}
	}
	for r := uint64(3); r < 8; r++ {
		var resps [2]*wire.Message
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resps[i] = rpc(c, r)
			}()
		}
		wg.Wait()
		ran, refused := 0, 0
		for _, resp := range resps {
			switch {
			case resp.Kind == ok:
				ran++
			case resp.Kind == wire.KindError && strings.Contains(resp.ErrorString(), ErrRoundReplay.Error()):
				refused++
			}
		}
		if ran != 1 || refused != 1 {
			t.Fatalf("round %d delivered twice: %d ran, %d refused as replays (kinds %d, %d)", r, ran, refused, resps[0].Kind, resps[1].Kind)
		}
	}
}

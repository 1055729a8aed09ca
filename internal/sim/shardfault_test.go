package sim

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
)

// TestShardFanoutChainEquivalence is the acceptance core: an end-to-end
// conversation round through a 3-server chain whose last hop fans out to
// networked shard servers — over authenticated channels — is
// byte-identical to the last server's own sequential table, for 1, 2, 4,
// 8, and a non-power-of-two shard count. The batch mixes real
// conversations, an idle (fake-request) client, and malformed onions.
func TestShardFanoutChainEquivalence(t *testing.T) {
	defer LeakCheck(t)()
	const servers = 3
	const round = 1
	const mu = 3

	// One reference chain provides the keys and the expected replies.
	pubs, privs, err := mixnet.NewChainKeys(servers)
	if err != nil {
		t.Fatal(err)
	}
	onions := equivalenceBatch(t, round, pubs)

	seqHead, stopSeq := chainWithKeys(t, transport.NewMem(), pubs, privs, mixnet.Config{ConvoNoise: noise.Fixed{N: mu}})
	defer stopSeq()
	want, err := seqHead.ConvoRound(round, onions)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(onions) {
		t.Fatalf("%d replies for %d onions", len(want), len(onions))
	}

	// Networked fan-out at several widths, same keys, same onions.
	shardCounts := []int{1, 2, 4, 8, 5}
	if testing.Short() {
		shardCounts = []int{1, 4}
	}
	for _, shards := range shardCounts {
		head, stop := shardFanoutWithKeys(t, pubs, privs, mu, shards)
		got, err := head.ConvoRound(round, onions)
		stop()
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		compareReplies(t, "networked", got, want)
	}
}

// equivalenceBatch builds a deterministic-reply batch: two conversing
// pairs (one colliding on message content, not drops), an idle client,
// and two malformed onions.
func equivalenceBatch(t *testing.T, round uint64, pubs []box.PublicKey) [][]byte {
	t.Helper()
	var onions [][]byte
	add := func(name string, peer string, msg []byte) {
		pub, priv := box.KeyPairFromSeed([]byte(name))
		var secret *[32]byte
		if peer != "" {
			peerPub, _ := box.KeyPairFromSeed([]byte(peer))
			s, err := convo.DeriveSecret(&priv, &peerPub)
			if err != nil {
				t.Fatal(err)
			}
			secret = s
		}
		req, err := convo.BuildRequest(secret, round, &pub, msg)
		if err != nil {
			t.Fatal(err)
		}
		o, _, err := onion.Wrap(req.Marshal(), round, 0, pubs, nil)
		if err != nil {
			t.Fatal(err)
		}
		onions = append(onions, o)
	}
	add("alice", "bob", []byte("hi bob"))
	add("bob", "alice", []byte("hi alice"))
	add("carol", "dave", []byte("hi dave"))
	add("dave", "carol", []byte("hi carol"))
	add("erin", "", nil) // idle: fake request
	onions = append(onions, bytes.Repeat([]byte{0x5a}, 64), []byte{})
	return onions
}

func compareReplies(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d replies, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: reply %d differs from sequential path", label, i)
		}
	}
}

// chainWithKeys serves a chain over pre-made keys on mem, so several
// topologies can process byte-identical onions. It returns the head, where
// rounds enter, and the chain's stop function.
func chainWithKeys(t *testing.T, mem *transport.Mem, pubs []box.PublicKey, privs []box.PrivateKey, base mixnet.Config) (*mixnet.Server, func()) {
	t.Helper()
	chain, _, stop, err := mixnet.StartChain(mem, pubs, privs, base, nil)
	if err != nil {
		t.Fatal(err)
	}
	return chain[0], stop
}

// shardFanoutWithKeys is chainWithKeys with the last server routing to
// `shards` networked shard servers.
// Shard identities are deterministic per index; the last chain server's
// key is the authorized router key, as in production.
func shardFanoutWithKeys(t *testing.T, pubs []box.PublicKey, privs []box.PrivateKey, mu, shards int) (*mixnet.Server, func()) {
	t.Helper()
	mem := transport.NewMem()
	base := mixnet.Config{ConvoNoise: noise.Fixed{N: mu}}
	var stops []func()
	for i := 0; i < shards; i++ {
		shardPub, shardPriv := box.KeyPairFromSeed([]byte("equiv-shard-" + string(rune('0'+i))))
		ss, err := mixnet.NewShardServer(mixnet.ShardConfig{
			Index: i, NumShards: shards,
			Identity:   shardPriv,
			Authorized: []box.PublicKey{pubs[len(pubs)-1]},
		})
		if err != nil {
			t.Fatal(err)
		}
		addr := "shard-" + string(rune('0'+i))
		l, err := mem.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go ss.Serve(l)
		stops = append(stops, func() { l.Close(); ss.Close() })
		base.ShardAddrs = append(base.ShardAddrs, addr)
		base.ShardPubs = append(base.ShardPubs, shardPub)
	}
	head, stopChain := chainWithKeys(t, mem, pubs, privs, base)
	return head, func() {
		stopChain()
		for _, stop := range stops {
			stop()
		}
	}
}

// faultNet builds a 2-server chain with `shards` shard servers behind a
// transport.Faulty dialer, so tests can kill/hang individual shards.
func faultNet(t *testing.T, shards int, timeout time.Duration) (*ChainNet, *transport.Faulty) {
	t.Helper()
	faulty := transport.NewFaulty(transport.NewMem())
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 2,
		Shards:  shards,
		Net:     faulty,
		Chain:   mixnet.Config{ConvoNoise: noise.Fixed{N: 2}, ShardTimeout: timeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cn, faulty
}

// wantRemoteVia asserts what the head of a 2-server chain — like any
// production predecessor — sees when the shard leg behind its successor
// fails: the cause crossed the hop as a KindError string, so it is a
// *mixnet.RemoteError naming the next hop whose message carries the
// router's own report (every want). The router-side typed errors are
// asserted where they are still Go errors, in internal/mixnet's shard
// suites.
func wantRemoteVia(t *testing.T, err error, hop string, want ...string) {
	t.Helper()
	var remote *mixnet.RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("round returned %v, want RemoteError", err)
	}
	if remote.Addr != hop {
		t.Fatalf("RemoteError names %q, want the next hop %q", remote.Addr, hop)
	}
	for _, w := range want {
		if !strings.Contains(remote.Msg, w) {
			t.Fatalf("RemoteError cause %q does not carry %q", remote.Msg, w)
		}
	}
}

// runRound drives one conversation round with a fresh conversing pair and
// verifies the pair actually exchanged messages — catching any reply
// reordering after a recovered fault.
func runRound(t *testing.T, cn *ChainNet, round uint64) error {
	t.Helper()
	aPub, aPriv := box.KeyPairFromSeed([]byte("fault-alice"))
	bPub, bPriv := box.KeyPairFromSeed([]byte("fault-bob"))
	sA, err := convo.DeriveSecret(&aPriv, &bPub)
	if err != nil {
		t.Fatal(err)
	}
	sB, err := convo.DeriveSecret(&bPriv, &aPub)
	if err != nil {
		t.Fatal(err)
	}
	reqA, err := convo.BuildRequest(sA, round, &aPub, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	reqB, err := convo.BuildRequest(sB, round, &bPub, []byte("pong"))
	if err != nil {
		t.Fatal(err)
	}
	oA, aKeys, err := onion.Wrap(reqA.Marshal(), round, 0, cn.Pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	oB, bKeys, err := onion.Wrap(reqB.Marshal(), round, 0, cn.Pubs, nil)
	if err != nil {
		t.Fatal(err)
	}

	replies, err := cn.Servers[0].ConvoRound(round, [][]byte{oA, oB})
	if err != nil {
		return err
	}
	if len(replies) != 2 {
		t.Fatalf("round %d: %d replies", round, len(replies))
	}
	innerA, err := onion.UnwrapReply(replies[0], round, 0, aKeys)
	if err != nil {
		t.Fatalf("round %d: unwrap alice reply: %v", round, err)
	}
	if msg, ok := convo.OpenReply(sA, round, &bPub, innerA); !ok || string(msg) != "pong" {
		t.Fatalf("round %d: alice got %q ok=%v — replies reordered?", round, msg, ok)
	}
	innerB, err := onion.UnwrapReply(replies[1], round, 0, bKeys)
	if err != nil {
		t.Fatalf("round %d: unwrap bob reply: %v", round, err)
	}
	if msg, ok := convo.OpenReply(sB, round, &aPub, innerB); !ok || string(msg) != "ping" {
		t.Fatalf("round %d: bob got %q ok=%v — replies reordered?", round, msg, ok)
	}
	return nil
}

// TestShardFaultKilledShard: killing one shard mid-run aborts the round
// with a RemoteError naming that shard, leaves no goroutines behind, and
// the next round works again once the shard is reachable — redialed over
// the same router.
func TestShardFaultKilledShard(t *testing.T) {
	defer LeakCheck(t)()
	cn, faulty := faultNet(t, 4, 0)
	defer cn.Close()

	if err := runRound(t, cn, 1); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	faulty.Break(cn.ShardAddrs[2])
	wantRemoteVia(t, runRound(t, cn, 2), cn.ServerAddrs[1], cn.ShardAddrs[2], "shard 2")

	faulty.Restore(cn.ShardAddrs[2])
	if err := runRound(t, cn, 3); err != nil {
		t.Fatalf("round after shard recovery: %v", err)
	}
}

// TestShardFaultHungShard: a shard that stops replying wedges only until
// the router's per-shard timeout, then the round aborts with a
// RemoteError instead of deadlocking the pipeline; after the shard heals,
// the next round succeeds.
func TestShardFaultHungShard(t *testing.T) {
	defer LeakCheck(t)()
	timeout := 250 * time.Millisecond
	if testing.Short() {
		timeout = 100 * time.Millisecond
	}
	cn, faulty := faultNet(t, 3, timeout)
	defer cn.Close()

	if err := runRound(t, cn, 1); err != nil {
		t.Fatalf("healthy round: %v", err)
	}

	faulty.Hang(cn.ShardAddrs[1])
	start := time.Now()
	wantRemoteVia(t, runRound(t, cn, 2), cn.ServerAddrs[1], cn.ShardAddrs[1])
	if elapsed := time.Since(start); elapsed > 10*timeout {
		t.Fatalf("hung shard stalled the round for %v with a %v timeout", elapsed, timeout)
	}

	faulty.Restore(cn.ShardAddrs[1])
	if err := runRound(t, cn, 3); err != nil {
		t.Fatalf("round after hang recovery: %v", err)
	}
}

// TestShardFaultErroringShard: a shard that rejects the round (replay
// detection after a duplicated frame) surfaces its own cause through the
// RemoteError, and the remaining shards' connections survive to the next
// round.
func TestShardFaultErroringShard(t *testing.T) {
	defer LeakCheck(t)()
	cn, _ := faultNet(t, 4, 0)
	defer cn.Close()

	if err := runRound(t, cn, 1); err != nil {
		t.Fatalf("healthy round: %v", err)
	}
	// Consume round 2 on shard 3 directly, so the chain's round 2
	// arrives there as a replay and is rejected by the shard itself.
	if _, err := cn.Shards[3].ExchangeRound(2, nil); err != nil {
		t.Fatal(err)
	}
	wantRemoteVia(t, runRound(t, cn, 2), cn.ServerAddrs[1], cn.ShardAddrs[3], "round")
	if err := runRound(t, cn, 3); err != nil {
		t.Fatalf("round after shard-side rejection: %v", err)
	}
}

// TestShardLegMITMTamperAbortsRound: end-to-end through the chain, a
// man-in-the-middle flipping one byte of the (encrypted) router→shard
// traffic aborts the round with an authentication error — the shard's
// authenticated alert tells the router the leg is under attack, not down.
// Disarming the tap recovers the next round over a fresh connection.
func TestShardLegMITMTamperAbortsRound(t *testing.T) {
	defer LeakCheck(t)()
	mitm := transport.NewMITM(transport.NewMem())
	var armed atomic.Bool
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 2, Shards: 3, Net: mitm,
		Chain: mixnet.Config{ConvoNoise: noise.Fixed{N: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	// The tap must exist before the router dials; it stays passive until
	// armed, so round 1 runs clean over the intercepted connection.
	mitm.Intercept(cn.ShardAddrs[1], func(dir transport.Direction, index int, rec []byte) [][]byte {
		if armed.Load() && dir == transport.ClientToServer && index >= 1 {
			rec[len(rec)/3] ^= 0x01
		}
		return [][]byte{rec}
	})

	if err := runRound(t, cn, 1); err != nil {
		t.Fatalf("healthy round through passive tap: %v", err)
	}

	armed.Store(true)
	err = runRound(t, cn, 2)
	if err == nil {
		t.Fatal("round with tampered shard leg succeeded")
	}
	wantRemoteVia(t, err, cn.ServerAddrs[1], cn.ShardAddrs[1], transport.ErrAuth.Error())

	armed.Store(false)
	if err := runRound(t, cn, 3); err != nil {
		t.Fatalf("round after tamper stopped: %v", err)
	}
}

// TestShardFanoutClosesClean: a chain with a live shard fan-out whose
// round was driven straight at the head (no coordinator round ever ran)
// shuts down without leaking goroutines — the LeakCheck is the assertion.
func TestShardFanoutClosesClean(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{Servers: 3, Shards: 4, Chain: fixedNoise(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := runRound(t, cn, 1); err != nil {
		t.Fatal(err)
	}
	cn.Close()
}

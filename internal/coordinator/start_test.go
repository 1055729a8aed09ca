package coordinator_test

// These tests live in an external test package so they can use
// sim.LeakCheck (the sim package imports coordinator): timer mode spins
// up ticker loops, pipeline stages, client writers, and chain
// connections, and every test here must leave none of them behind.

import (
	"context"
	"testing"
	"time"

	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/sim"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// unreachableChainKey is a syntactically valid chain-head key for tests
// whose chain address never answers — the handshake never runs.
func unreachableChainKey() box.PublicKey {
	pub, _ := box.KeyPairFromSeed([]byte("unreachable-chain"))
	return pub
}

// roundFailure is one OnRoundError callback invocation.
type roundFailure struct {
	proto wire.Proto
	round uint64
	err   error
}

// TestStartSurfacesDialRoundErrors is the regression test for timer mode
// silently discarding RunDialRound failures: with the chain unreachable,
// both the dialing and conversation timers must report their round
// errors through Config.OnRoundError instead of dropping them.
func TestStartSurfacesDialRoundErrors(t *testing.T) {
	defer sim.LeakCheck(t)()
	failures := make(chan roundFailure, 16)
	co, err := coordinator.New(coordinator.Config{
		Net:           transport.NewMem(), // nothing listens: every chain RPC fails
		ChainAddr:     "unreachable-chain",
		ChainPub:      unreachableChainKey(),
		SubmitTimeout: time.Millisecond,
		OnRoundError: func(proto wire.Proto, round uint64, err error) {
			failures <- roundFailure{proto, round, err}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co.Start(ctx, 5*time.Millisecond, 5*time.Millisecond)

	var gotDial, gotConvo bool
	deadline := time.After(5 * time.Second)
	for !gotDial || !gotConvo {
		select {
		case f := <-failures:
			if f.err == nil {
				t.Fatalf("callback with nil error: %+v", f)
			}
			if f.round == 0 {
				t.Fatalf("callback without a round number: %+v", f)
			}
			switch f.proto {
			case wire.ProtoDial:
				gotDial = true
			case wire.ProtoConvo:
				gotConvo = true
			default:
				t.Fatalf("callback with unknown proto: %+v", f)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for round errors (dial=%v convo=%v)", gotDial, gotConvo)
		}
	}
}

// TestStartPipelinesConvoRounds is the regression test for timer mode
// running rounds strictly serially regardless of ConvoWindow: with a
// window of 3, round 2 must be announced to clients WHILE round 1 is
// still traversing the chain. The stub chain holds round 1's reply
// hostage until the client has seen round 2's announcement — under the
// old serial Start that is a deadlock (round 2 was only announced after
// round 1 completed) and the test times out.
func TestStartPipelinesConvoRounds(t *testing.T) {
	defer sim.LeakCheck(t)()
	chainNet := transport.NewMem()
	chainPub, chainPriv := box.KeyPairFromSeed([]byte("pipeline-chain"))
	chainL, err := chainNet.Listen("chain")
	if err != nil {
		t.Fatal(err)
	}
	defer chainL.Close()
	release := make(chan struct{})
	go func() {
		for {
			raw, err := chainL.Accept()
			if err != nil {
				return
			}
			go func() {
				c := wire.NewConn(transport.SecureServerAny(raw, chainPriv))
				defer c.Close()
				for {
					msg, err := c.Recv()
					if err != nil {
						return
					}
					if msg.Round == 1 {
						<-release // hold round 1 in the chain
					}
					// Echo the batch back as replies: content is opaque to
					// the coordinator, only the count must match.
					if err := c.Send(&wire.Message{
						Kind: wire.KindReplies, Proto: msg.Proto, Round: msg.Round, Body: msg.Body,
					}); err != nil {
						return
					}
				}
			}()
		}
	}()

	co, err := coordinator.New(coordinator.Config{
		Net:           chainNet,
		ChainAddr:     "chain",
		ChainPub:      chainPub,
		ConvoWindow:   3,
		SubmitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// One raw client that answers every announce so rounds are non-empty.
	clientNet := transport.NewMem()
	entryL, err := clientNet.Listen("entry")
	if err != nil {
		t.Fatal(err)
	}
	defer entryL.Close()
	go co.Serve(entryL)
	raw, err := clientNet.Dial("entry")
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()

	type event struct {
		kind  wire.Kind
		round uint64
	}
	events := make(chan event, 64)
	go func() {
		for {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if msg.Proto != wire.ProtoConvo {
				continue
			}
			events <- event{msg.Kind, msg.Round}
			if msg.Kind == wire.KindAnnounce {
				conn.Send(&wire.Message{
					Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: msg.Round,
					Body: [][]byte{{0xAA}},
				})
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	for co.NumClients() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("client registration timed out")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	co.Start(ctx, 10*time.Millisecond, 0)

	// Phase 1: round 2's announcement must arrive while round 1's reply
	// is held in the chain.
	sawAnnounce2 := false
	phase1 := time.After(5 * time.Second)
	for !sawAnnounce2 {
		select {
		case e := <-events:
			if e.kind == wire.KindReply && e.round == 1 {
				t.Fatal("round 1 reply delivered while the stub chain was holding it")
			}
			if e.kind == wire.KindAnnounce && e.round >= 2 {
				sawAnnounce2 = true
			}
		case <-phase1:
			t.Fatal("round 2 never announced while round 1 was in the chain — timer mode is not pipelined")
		}
	}

	// Phase 2: release the chain; both rounds must complete.
	close(release)
	gotReply := map[uint64]bool{}
	phase2 := time.After(5 * time.Second)
	for !gotReply[1] || !gotReply[2] {
		select {
		case e := <-events:
			if e.kind == wire.KindReply {
				gotReply[e.round] = true
			}
		case <-phase2:
			t.Fatalf("replies missing after release: %v", gotReply)
		}
	}
}

// TestStartNilCallbackStillTicks: without OnRoundError set, failing
// timer rounds are still tolerated — the loop must not panic or stall.
func TestStartNilCallbackStillTicks(t *testing.T) {
	defer sim.LeakCheck(t)()
	co, err := coordinator.New(coordinator.Config{
		Net:           transport.NewMem(),
		ChainAddr:     "unreachable-chain",
		ChainPub:      unreachableChainKey(),
		SubmitTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	co.Start(ctx, 0, 5*time.Millisecond)
	time.Sleep(30 * time.Millisecond)
	cancel()
}

package coordinator

// Regression tests for the round-collection bugs that churn exposes:
// each of the four tests below fails against the pre-fix collection
// path (late joiners counted toward the snapshot, aborted rounds left
// pending, disconnects burning the full SubmitTimeout, malformed
// submissions silently ignored), plus a churn matrix exercising
// connect/disconnect/submit in every phase of collection for both
// protocols and through the windowed pipeline.

import (
	"context"
	"testing"
	"time"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/wire"
)

// fakeDialOnions builds n idle dialing onions for a round with m buckets.
func fakeDialOnions(t *testing.T, chain []box.PublicKey, round uint64, m uint32, n int) [][]byte {
	t.Helper()
	out := make([][]byte, n)
	for i := range out {
		pub, _ := box.KeyPairFromSeed([]byte{byte(i), byte(round)})
		req, err := dial.BuildRequest(&pub, nil, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		o, _, err := onion.Wrap(req.Marshal(), round, 0, chain, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = o
	}
	return out
}

// TestLateJoinerCannotPoisonRound: a client that connects after the
// round's announce snapshot must not count toward round completion.
// Before the fix, the late joiner's submission filled the snapshot
// quota, closing the round while a real member's submission was still
// in flight — that member's onions were then dropped by the
// snapshot-ordered batch build, stranding it without a reply.
func TestLateJoinerCannotPoisonRound(t *testing.T) {
	r := newRig(t, Config{SubmitTimeout: 3 * time.Second})
	a := r.rawClient(t, 1)
	b := r.rawClient(t, 2)

	done := make(chan int, 1)
	go func() {
		_, n, _ := r.co.RunConvoRound(context.Background())
		done <- n
	}()
	annA, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}

	// A late client joins after the announcement and submits for the
	// open round.
	late := r.rawClient(t, 3)
	lateOnions := fakeOnions(t, r.chain, annA.Round, 1)
	if err := late.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: annA.Round, Body: lateOnions}); err != nil {
		t.Fatal(err)
	}
	// Member A submits; member B is deliberately slow.
	aOnions := fakeOnions(t, r.chain, annA.Round, 1)
	if err := a.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: annA.Round, Body: aOnions}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	select {
	case n := <-done:
		t.Fatalf("round closed with %d participants before member B submitted (late joiner counted toward the snapshot)", n)
	default:
	}
	bOnions := fakeOnions(t, r.chain, annA.Round, 1)
	if err := b.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: annA.Round, Body: bOnions}); err != nil {
		t.Fatal(err)
	}
	if n := <-done; n != 2 {
		t.Fatalf("participants = %d, want both snapshot members", n)
	}
	// Both members get replies; the late joiner gets nothing this round.
	for name, c := range map[string]*wire.Conn{"a": a, "b": b} {
		reply, err := c.Recv()
		if err != nil || reply.Kind != wire.KindReply || reply.Round != annA.Round {
			t.Fatalf("%s reply: %+v err=%v", name, reply, err)
		}
	}
}

// TestAbortedRoundCleansPending: a round aborted by context
// cancellation must retire itself from the pending table. Before the
// fix, the dead round kept absorbing submissions forever — an onion a
// client meant for a live round was eaten by a round that would never
// reach the chain.
func TestAbortedRoundCleansPending(t *testing.T) {
	r := newRig(t, Config{SubmitTimeout: 10 * time.Second})
	c := r.rawClient(t, 1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := r.co.RunConvoRound(ctx)
		done <- err
	}()
	ann, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	rs := r.co.col.Pending(wire.ProtoConvo)
	if rs == nil {
		t.Fatal("no pending round after announce")
	}

	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled round returned no error")
	}
	stale := r.co.col.Pending(wire.ProtoConvo)
	if stale != nil {
		t.Fatal("aborted round still pending")
	}

	// A submission for the aborted round is dropped, not absorbed.
	onions := fakeOnions(t, r.chain, ann.Round, 1)
	if err := c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if absorbed, _ := rs.Finish(); len(absorbed) != 0 {
		t.Fatalf("aborted round absorbed %d submissions", len(absorbed))
	}
}

// TestDisconnectClosesRoundEarly: a member that disconnects mid-round
// is removed from the outstanding set, so the round closes as soon as
// every remaining member has submitted. Before the fix, one disconnect
// made every such round wait out the entire SubmitTimeout.
func TestDisconnectClosesRoundEarly(t *testing.T) {
	r := newRig(t, Config{SubmitTimeout: 3 * time.Second})
	a := r.rawClient(t, 1)
	b := r.rawClient(t, 2)

	start := time.Now()
	done := make(chan int, 1)
	go func() {
		_, n, _ := r.co.RunConvoRound(context.Background())
		done <- n
	}()
	ann, err := a.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatal(err)
	}
	b.Close() // B churns out mid-round
	onions := fakeOnions(t, r.chain, ann.Round, 1)
	if err := a.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-done:
		if n != 1 {
			t.Fatalf("participants = %d, want 1", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("round did not close early after the disconnect")
	}
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("round took %v, should close well before the %v timeout", elapsed, 3*time.Second)
	}
}

// TestMalformedSubmissionDropsClient: a submission with the wrong
// exchange count drops the connection — the same policy as a stalled
// writer — instead of being silently ignored, which left an
// honest-but-misconfigured client waiting forever for a reply that
// could never be addressed to it.
func TestMalformedSubmissionDropsClient(t *testing.T) {
	r := newRig(t, Config{ConvoExchanges: 2, SubmitTimeout: 2 * time.Second})
	c := r.rawClient(t, 1)

	done := make(chan int, 1)
	go func() {
		_, n, _ := r.co.RunConvoRound(context.Background())
		done <- n
	}()
	ann, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	// One onion where two were announced.
	onions := fakeOnions(t, r.chain, ann.Round, 1)
	if err := c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: ann.Round, Body: onions}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for r.co.NumClients() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("misconfigured client still connected after malformed submission")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := <-done; n != 0 {
		t.Fatalf("malformed submission accepted: %d participants", n)
	}
	// The client observes the drop instead of hanging.
	if _, err := c.Recv(); err == nil {
		t.Fatal("client connection still alive")
	}
}

// TestChurnMatrix drives one round of each protocol through every
// collection phase of churn at once: a member that submits and stays, a
// member that disconnects before submitting, a member that submits and
// then disconnects, and a late joiner that submits after the snapshot.
// The round must close early with exactly the two submitted members.
func TestChurnMatrix(t *testing.T) {
	for _, proto := range []wire.Proto{wire.ProtoConvo, wire.ProtoDial} {
		name := "convo"
		if proto == wire.ProtoDial {
			name = "dial"
		}
		t.Run(name, func(t *testing.T) {
			r := newRig(t, Config{SubmitTimeout: 3 * time.Second})
			stays := r.rawClient(t, 1)
			ghost := r.rawClient(t, 2)  // disconnects before submitting
			leaver := r.rawClient(t, 3) // submits, then disconnects

			start := time.Now()
			done := make(chan int, 1)
			go func() {
				var n int
				if proto == wire.ProtoConvo {
					_, n, _ = r.co.RunConvoRound(context.Background())
				} else {
					_, n, _ = r.co.RunDialRound(context.Background())
				}
				done <- n
			}()
			ann, err := stays.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if ann.Proto != proto {
				t.Fatalf("announce proto = %d, want %d", ann.Proto, proto)
			}
			if _, err := ghost.Recv(); err != nil {
				t.Fatal(err)
			}
			if _, err := leaver.Recv(); err != nil {
				t.Fatal(err)
			}

			submit := func(c *wire.Conn, n int) {
				var onions [][]byte
				if proto == wire.ProtoConvo {
					onions = fakeOnions(t, r.chain, ann.Round, n)
				} else {
					onions = fakeDialOnions(t, r.chain, ann.Round, ann.M, n)
				}
				if err := c.Send(&wire.Message{Kind: wire.KindSubmit, Proto: proto, Round: ann.Round, Body: onions}); err != nil {
					t.Fatal(err)
				}
			}

			ghost.Close()
			submit(leaver, 1)
			time.Sleep(100 * time.Millisecond)
			leaver.Close()
			// Wait for both disconnects to be processed, then join late.
			deadline := time.Now().Add(2 * time.Second)
			for r.co.NumClients() != 1 {
				if time.Now().After(deadline) {
					t.Fatalf("disconnects not processed: %d clients", r.co.NumClients())
				}
				time.Sleep(5 * time.Millisecond)
			}
			late := r.rawClient(t, 2)
			submit(late, 1)
			submit(stays, 1)

			n := <-done
			if n != 2 {
				t.Fatalf("participants = %d, want the two submitted members", n)
			}
			if elapsed := time.Since(start); elapsed >= 2*time.Second {
				t.Fatalf("churned round took %v, should close early", elapsed)
			}
			reply, err := stays.Recv()
			if err != nil || reply.Kind != wire.KindReply || reply.Round != ann.Round {
				t.Fatalf("reply: %+v err=%v", reply, err)
			}
		})
	}
}

// TestPipelineChurn runs windowed conversation rounds while a client
// churns out mid-sequence: the pipeline keeps its round order, the
// disconnect shrinks later snapshots, and no round waits out the
// timeout on the dead connection.
func TestPipelineChurn(t *testing.T) {
	r := newRig(t, Config{ConvoWindow: 2, SubmitTimeout: 2 * time.Second})
	a := r.rawClient(t, 1)
	b := r.rawClient(t, 2)

	// Rounds are announced starting at 1; pre-build onions so the
	// driver goroutines never call t.Fatal off the test goroutine.
	const rounds = 3
	onionsFor := func(c int) map[uint64][][]byte {
		m := make(map[uint64][][]byte, rounds)
		for rd := uint64(1); rd <= rounds; rd++ {
			m[rd] = fakeOnions(t, r.chain, rd, 1)
		}
		return m
	}
	aOnions, bOnions := onionsFor(0), onionsFor(1)

	// A answers every announce; B answers round 1 and disconnects when
	// round 2 is announced.
	go func() {
		for {
			msg, err := a.Recv()
			if err != nil {
				return
			}
			if msg.Kind != wire.KindAnnounce {
				continue
			}
			a.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: msg.Round, Body: aOnions[msg.Round]})
		}
	}()
	go func() {
		for {
			msg, err := b.Recv()
			if err != nil {
				return
			}
			if msg.Kind != wire.KindAnnounce {
				continue
			}
			if msg.Round >= 2 {
				b.Close()
				return
			}
			b.Send(&wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: msg.Round, Body: bOnions[msg.Round]})
		}
	}()

	start := time.Now()
	parts, err := r.co.RunConvoRounds(context.Background(), rounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != rounds {
		t.Fatalf("completed %d rounds, want %d", len(parts), rounds)
	}
	if parts[0] != 2 {
		t.Fatalf("round 1 participants = %d, want 2", parts[0])
	}
	for i := 1; i < rounds; i++ {
		if parts[i] != 1 {
			t.Fatalf("round %d participants = %d, want 1 after the churn", i+1, parts[i])
		}
	}
	// Round 2's disconnect must close collection early, not burn the
	// timeout; generous bound to keep slow CI honest.
	if elapsed := time.Since(start); elapsed >= 4*time.Second {
		t.Fatalf("pipeline took %v with churn", elapsed)
	}
}

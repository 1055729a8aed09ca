package collector

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"vuvuzela/internal/config"
	"vuvuzela/internal/convo"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/wire"
)

// member registers a connection with co the way serve does, without a
// read loop: the membership rules are driven directly below.
func member(t *testing.T, co *Collector) *Conn {
	t.Helper()
	ours, theirs := net.Pipe()
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	c := NewConn(wire.NewConn(ours), 1)
	co.mu.Lock()
	co.members[c] = struct{}{}
	co.mu.Unlock()
	return c
}

func isFull(r *Round) bool {
	select {
	case <-r.Full():
		return true
	default:
		return false
	}
}

// TestRoundMembership drives record and drop through every membership
// case the churn fixes of both entry tiers depend on.
func TestRoundMembership(t *testing.T) {
	onion := func(s string) [][]byte { return [][]byte{[]byte(s)} }
	cases := []struct {
		name string
		// run gets a round opened over members a and b, and a connection
		// that joined after the snapshot.
		run       func(t *testing.T, r *Round, a, b, late *Conn)
		wantFull  bool
		wantBatch []string
	}{
		{
			name: "late joiner rejected",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				if err := r.record(late, onion("late")); !errors.Is(err, errNotMember) {
					t.Fatalf("late joiner: %v", err)
				}
				r.record(a, onion("a"))
				r.drop(late) // a departing non-member settles nothing
			},
			wantFull: false, wantBatch: []string{"a"},
		},
		{
			name: "drop before submit closes early",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				r.record(a, onion("a"))
				r.drop(b)
			},
			wantFull: true, wantBatch: []string{"a"},
		},
		{
			name: "drop after submit keeps the slot",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				r.record(a, onion("a"))
				r.drop(a)
				if isFull(r) {
					t.Fatal("a submitted member's disconnect settled b")
				}
				r.record(b, onion("b"))
			},
			wantFull: true, wantBatch: []string{"a", "b"},
		},
		{
			name: "duplicate rejected, first submission stands",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				r.record(a, onion("a"))
				if err := r.record(a, onion("again")); !errors.Is(err, errDuplicate) {
					t.Fatalf("duplicate: %v", err)
				}
			},
			wantFull: false, wantBatch: []string{"a"},
		},
		{
			name: "abandoned round absorbs nothing",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				r.Abandon()
				if err := r.record(a, onion("a")); !errors.Is(err, errRoundClosed) {
					t.Fatalf("record after abandon: %v", err)
				}
				r.drop(b)
			},
			wantFull: false, wantBatch: nil,
		},
		{
			name: "superseded round is closed",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				next := r.co.Open(wire.ProtoConvo, 8, 1)
				if err := r.record(a, onion("a")); !errors.Is(err, errRoundClosed) {
					t.Fatalf("record into superseded round: %v", err)
				}
				if r.co.Pending(wire.ProtoConvo) != next {
					t.Fatal("newer round is not the pending one")
				}
				next.Abandon()
			},
			wantFull: false, wantBatch: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co := New(0)
			a, b := member(t, co), member(t, co)
			r := co.Open(wire.ProtoConvo, 7, 1)
			late := member(t, co)
			if co.Pending(wire.ProtoConvo) != r || len(r.Members()) != 2 {
				t.Fatalf("round not pending over the 2 members: %d", len(r.Members()))
			}
			tc.run(t, r, a, b, late)
			if isFull(r) != tc.wantFull {
				t.Fatalf("full = %v, want %v", isFull(r), tc.wantFull)
			}
			batch, parts := r.Finish()
			got := map[string]bool{}
			for _, o := range batch {
				got[string(o)] = true
			}
			if len(batch) != len(tc.wantBatch) || len(parts) != len(tc.wantBatch) {
				t.Fatalf("batch %q in %d parts, want %q", batch, len(parts), tc.wantBatch)
			}
			for _, w := range tc.wantBatch {
				if !got[w] {
					t.Fatalf("batch %q, want %q", batch, tc.wantBatch)
				}
			}
			if co.Pending(wire.ProtoConvo) != nil {
				t.Fatal("finished round still pending")
			}
			if err := r.record(b, onion("b")); !errors.Is(err, errRoundClosed) {
				t.Fatalf("record after finish: %v", err)
			}
		})
	}
}

// TestEmptyRoundIsFull: a round opened over no members has nobody to
// wait for.
func TestEmptyRoundIsFull(t *testing.T) {
	r := New(0).Open(wire.ProtoDial, 1, 1)
	if !isFull(r) {
		t.Fatal("round with no members is not full")
	}
}

// TestSendNeverBlocks: a full queue and a closed connection both report
// false, and only Deliver closes on overflow.
func TestSendNeverBlocks(t *testing.T) {
	ours, theirs := net.Pipe() // nobody reads theirs: the writer stalls on the first frame
	defer theirs.Close()
	c := NewConn(wire.NewConn(ours), 1)
	defer c.Close()
	msg := &wire.Message{Kind: wire.KindAnnounce}
	sent := 0
	for c.Send(msg) {
		if sent++; sent > 3 {
			t.Fatal("a queue of 1 behind a stalled writer took 4 frames")
		}
	}
	select {
	case <-c.Closed():
		t.Fatal("Send closed the connection on overflow")
	default:
	}
	c.Deliver(msg)
	select {
	case <-c.Closed():
	default:
		t.Fatal("Deliver left a stalled member connected")
	}
	if c.Send(msg) {
		t.Fatal("Send on a closed connection reported true")
	}
}

// client connects a wire-level client through ServeClient.
func client(t *testing.T, co *Collector) (*wire.Conn, net.Conn) {
	t.Helper()
	ours, theirs := net.Pipe()
	t.Cleanup(func() { theirs.Close() })
	before := co.NumClients()
	go co.ServeClient(ours)
	for deadline := time.Now().Add(2 * time.Second); co.NumClients() == before; {
		if time.Now().After(deadline) {
			t.Fatal("client never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return wire.NewConn(theirs), theirs
}

// TestClientFrameLimit: a client connection accepts exactly what the
// largest round opened so far could ask of it — perClient onions of up to
// maxOnion bytes — however large perClient is (the repo's benchmark
// submits 600 exchanges, 250 KB, from one connection), and refuses one
// byte more from the length prefix alone.
func TestClientFrameLimit(t *testing.T) {
	if n := onion.Size(convo.RequestSize, config.MaxServers); n > maxOnion {
		t.Fatalf("a %d-server chain's onion is %d bytes, above maxOnion %d", config.MaxServers, n, maxOnion)
	}
	const perClient = 600
	submission := func(round uint64) *wire.Message {
		body := make([][]byte, perClient)
		for i := range body {
			body[i] = make([]byte, maxOnion)
		}
		return &wire.Message{Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: round, Body: body}
	}
	submit := func(t *testing.T, r *Round, round uint64, clients ...*wire.Conn) {
		t.Helper()
		sent := make(chan error, len(clients))
		for _, c := range clients {
			go func() { sent <- c.Send(submission(round)) }()
		}
		for range clients {
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-r.Full():
		case <-time.After(2 * time.Second):
			t.Fatal("a submission of exactly the announced shape was not recorded")
		}
		if batch, _ := r.Finish(); len(batch) != len(clients)*perClient {
			t.Fatalf("batch of %d onions", len(batch))
		}
	}
	co := New(0)
	early, earlyRaw := client(t, co) // connected while the limit was one onion

	r := co.Open(wire.ProtoConvo, 1, perClient)
	submit(t, r, 1, early)

	// A smaller round (dialing) in between does not lower the limit, and a
	// client that connects after the raise starts with it.
	co.Open(wire.ProtoDial, 1, 1).Abandon()
	late, _ := client(t, co)
	r = co.Open(wire.ProtoConvo, 2, perClient)
	submit(t, r, 2, early, late)

	size := uint32(len(submission(3).Encode()))
	over := size + 1
	go earlyRaw.Write([]byte{byte(over >> 24), byte(over >> 16), byte(over >> 8), byte(over)})
	earlyRaw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := earlyRaw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a frame one byte past the limit kept the connection open (read: %v)", err)
	}
}

package collector

import (
	"bytes"
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

// tap registers a member of co the way serve does, without a read loop
// or a writer: the membership rules are driven directly, and each
// *wire.Message delivered to the member waits in its queue as built.
func tap(t *testing.T, co *Collector, front bool) *Conn {
	t.Helper()
	ours, theirs := net.Pipe()
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	c := &Conn{conn: wire.NewConn(ours), out: make(chan *wire.Message, 4), closed: make(chan struct{}), front: front}
	co.mu.Lock()
	co.members[c] = struct{}{}
	if front {
		co.fronts++
	}
	co.mu.Unlock()
	return c
}

// next returns the message queued for c.
func next(t *testing.T, c *Conn) *wire.Message {
	t.Helper()
	select {
	case m := <-c.out:
		return m
	default:
		t.Fatal("nothing delivered")
		return nil
	}
}

func isFull(r *Round) bool {
	select {
	case <-r.full:
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
				r.abandon()
				if err := r.record(a, onion("a")); !errors.Is(err, errRoundClosed) {
					t.Fatalf("record after abandon: %v", err)
				}
				r.drop(b)
			},
			wantFull: false, wantBatch: nil,
		},
		{
			name: "collect abandons on stop",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				stop := make(chan struct{})
				close(stop)
				if _, _, ok := r.Collect(time.Hour, stop, nil); ok {
					t.Fatal("Collect finished a round whose stop channel closed")
				}
				if err := r.record(a, onion("a")); !errors.Is(err, errRoundClosed) {
					t.Fatalf("record after stop: %v", err)
				}
			},
			wantFull: false, wantBatch: nil,
		},
		{
			name: "collect abandons on done",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				done := make(chan struct{})
				close(done)
				if _, _, ok := r.Collect(time.Hour, nil, done); ok {
					t.Fatal("Collect finished a round whose done channel closed")
				}
				if err := r.record(a, onion("a")); !errors.Is(err, errRoundClosed) {
					t.Fatalf("record after done: %v", err)
				}
			},
			wantFull: false, wantBatch: nil,
		},
		{
			name: "collect finishes with what arrived when the budget elapses",
			run: func(t *testing.T, r *Round, a, b, late *Conn) {
				r.record(a, onion("a"))
				if batch, parts, ok := r.Collect(time.Millisecond, nil, nil); !ok || len(batch) != 1 || len(parts) != 1 {
					t.Fatalf("Collect = %q in %d parts, ok %v; want a's submission", batch, len(parts), ok)
				}
			},
			wantFull: false, wantBatch: []string{"a"},
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
				next.abandon()
			},
			wantFull: false, wantBatch: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co := New(0)
			a, b := tap(t, co, false), tap(t, co, false)
			r := co.Open(wire.ProtoConvo, 7, 1)
			late := tap(t, co, false)
			if co.Pending(wire.ProtoConvo) != r || len(r.snapshot) != 2 {
				t.Fatalf("round not pending over the 2 members: %d", len(r.snapshot))
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

// TestAnnounceReply pins the frames a round member is sent, for a client
// and a frontend pipe in each protocol: the announcement (Kind, M, Bucket)
// and the reply (Kind, M, body slice). A client's are the same from the
// coordinator and from a frontend; a pipe's are what the frontend splits
// among its own clients.
func TestAnnounceReply(t *testing.T) {
	const budget = 1500 * time.Millisecond
	replies := [][]byte{{0}, {1}, {2}, {3}, {4}, {5}, {6}, {7}}
	cases := []struct {
		name  string
		front bool
		proto wire.Proto
		m     uint32
		// onions is the member's share of the batch, which follows a
		// client's two.
		onions     int
		wantBucket uint32
		wantKind   wire.Kind
		wantM      uint32
		wantBody   [][]byte
	}{
		{"client/convo", false, wire.ProtoConvo, 2, 2, 0, wire.KindReply, 2, replies[2:4]},
		{"pipe/convo", true, wire.ProtoConvo, 2, 6, 1500, wire.KindFrontReplies, 3, replies[2:8]},
		{"client/dial", false, wire.ProtoDial, 7, 1, 0, wire.KindReply, 7, nil},
		{"pipe/dial", true, wire.ProtoDial, 7, 3, 1500, wire.KindFrontReplies, 7, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co := New(0)
			lead, c := tap(t, co, false), tap(t, co, tc.front)
			r := co.Open(tc.proto, 9, 1)
			r.Announce(tc.m, budget)
			leadAnn, ann := next(t, lead), next(t, c)
			for _, a := range []*wire.Message{leadAnn, ann} {
				if a.Kind != wire.KindAnnounce || a.Proto != tc.proto || a.Round != 9 || a.M != tc.m || len(a.Body) != 0 {
					t.Fatalf("announcement %+v", a)
				}
			}
			if leadAnn.Bucket != 0 || ann.Bucket != tc.wantBucket {
				t.Fatalf("announced budget %d to a client, %d to the member; want 0, %d", leadAnn.Bucket, ann.Bucket, tc.wantBucket)
			}
			// A snapshot without a pipe gets one message, and no copy.
			if shared := leadAnn == ann; shared == tc.front {
				t.Fatalf("client and member share one announcement: %v, want %v", shared, !tc.front)
			}

			Reply([]Part{{Conn: lead, Onions: 2}, {Conn: c, Onions: tc.onions}}, tc.proto, 9, tc.m, replies)
			next(t, lead)
			got := next(t, c)
			if got.Kind != tc.wantKind || got.Proto != tc.proto || got.Round != 9 || got.M != tc.wantM || got.Bucket != 0 {
				t.Fatalf("reply %+v, want kind %d, M %d", got, tc.wantKind, tc.wantM)
			}
			if len(got.Body) != len(tc.wantBody) {
				t.Fatalf("reply body of %d, want %d", len(got.Body), len(tc.wantBody))
			}
			for i := range got.Body {
				if !bytes.Equal(got.Body[i], tc.wantBody[i]) {
					t.Fatalf("reply entry %d is %v, want %v: not the member's slice", i, got.Body[i], tc.wantBody[i])
				}
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
		case <-r.full:
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
	co.Open(wire.ProtoDial, 1, 1).abandon()
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

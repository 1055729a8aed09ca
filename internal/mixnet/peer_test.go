package mixnet

import (
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// legRemote is a scripted remote end of a Peer's leg. It counts the
// connections it accepted and the requests it read, so each row of the
// policy table can say how often the Peer dialed and how often it sent.
type legRemote struct {
	mu              sync.Mutex
	dials, requests int
	conns           []net.Conn
}

func (lr *legRemote) counts() (dials, requests int) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return lr.dials, lr.requests
}

// garbage tells legRemote to answer with an authenticated record that
// does not parse as a frame.
var garbage = &wire.Message{}

func okReply(req *wire.Message) *wire.Message {
	return &wire.Message{Kind: wire.KindReplies, Proto: req.Proto, Round: req.Round, Body: req.Body}
}

// startLegRemote listens on addr. A deaf remote accepts and never reads.
// Otherwise round 1 is answered by script (connection ordinal, request) →
// (frame to send or nil for silence, hang up afterwards); every other
// round is answered correctly.
func startLegRemote(t *testing.T, mem *transport.Mem, addr string, priv box.PrivateKey, deaf bool,
	script func(conn int, req *wire.Message) (*wire.Message, bool)) *legRemote {
	t.Helper()
	l, err := mem.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	lr := &legRemote{}
	t.Cleanup(func() {
		l.Close()
		lr.mu.Lock()
		defer lr.mu.Unlock()
		for _, c := range lr.conns {
			c.Close()
		}
	})
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			lr.mu.Lock()
			lr.dials++
			n := lr.dials
			lr.conns = append(lr.conns, raw)
			lr.mu.Unlock()
			if deaf {
				continue
			}
			go func() {
				sec := transport.SecureServerAny(raw, priv)
				c := wire.NewConn(sec)
				defer c.Close()
				for {
					req, err := c.Recv()
					if err != nil {
						return
					}
					lr.mu.Lock()
					lr.requests++
					lr.mu.Unlock()
					resp, hangUp := okReply(req), false
					if req.Round == 1 {
						resp, hangUp = script(n, req)
					}
					switch resp {
					case nil:
					case garbage:
						sec.Write([]byte{0, 0, 0, 3, 1, 2, 3})
					default:
						c.Send(resp)
					}
					if hangUp {
						return
					}
				}
			}()
		}
	}()
	return lr
}

// TestPeerPolicy pins the one leg policy (docs/WIRE.md §2.2) row by row:
// what Do returns for round 1, how many times the Peer dialed and sent to
// get there, and whether round 2 finds the connection kept (same dial
// count) or dropped (one more).
func TestPeerPolicy(t *testing.T) {
	isRemote := func(err error) bool { var r *RemoteError; return errors.As(err, &r) }
	is := func(target error) func(error) bool {
		return func(err error) bool { return errors.Is(err, target) && !isRemote(err) }
	}
	reply := func(f func(req *wire.Message) *wire.Message) func(int, *wire.Message) (*wire.Message, bool) {
		return func(_ int, req *wire.Message) (*wire.Message, bool) { return f(req), false }
	}
	cases := []struct {
		name    string
		timeout time.Duration
		deaf    bool
		tamper  bool // flip a bit in every answer on the wire
		script  func(conn int, req *wire.Message) (*wire.Message, bool)
		check   func(*wire.Message) error // the leg's own test of round 1's answer
		wantErr func(error) bool          // nil: round 1 succeeds
		// dials and requests after round 1; thenDials after round 2
		// (0: no round 2, the remote end cannot answer one).
		dials, requests, thenDials int
	}{
		{name: "healthy", script: reply(okReply), dials: 1, requests: 1, thenDials: 1},
		{
			name: "stale connection: one resend",
			script: func(conn int, req *wire.Message) (*wire.Message, bool) {
				if conn == 1 {
					return nil, true // cut before the answer
				}
				return okReply(req), false
			},
			dials: 2, requests: 2, thenDials: 2,
		},
		{
			name:    "cut again on the resend: no third attempt",
			script:  func(int, *wire.Message) (*wire.Message, bool) { return nil, true },
			wantErr: func(err error) bool { return err != nil && !isRemote(err) },
			dials:   2, requests: 2, thenDials: 3,
		},
		{
			name: "read deadline: never resent", timeout: 100 * time.Millisecond,
			script:  func(int, *wire.Message) (*wire.Message, bool) { return nil, false },
			wantErr: is(os.ErrDeadlineExceeded),
			dials:   1, requests: 1, thenDials: 2,
		},
		{
			name: "write deadline: never resent", timeout: 100 * time.Millisecond, deaf: true,
			wantErr: is(os.ErrDeadlineExceeded),
			dials:   1, requests: 0,
		},
		{
			name: "authentication failure: never resent", tamper: true,
			script:  reply(okReply),
			wantErr: is(transport.ErrAuth),
			dials:   1, requests: 1,
		},
		{
			name: "echoed KindError: RemoteError, connection kept",
			script: reply(func(req *wire.Message) *wire.Message {
				return wire.ErrorMessage(req.Proto, req.Round, errors.New("round refused"))
			}),
			wantErr: isRemote,
			dials:   1, requests: 1, thenDials: 1,
		},
		{
			name: "wrong kind: dropped, never resent",
			script: reply(func(req *wire.Message) *wire.Message {
				return wire.ShardReplyMessage(req.Round, 0, nil)
			}),
			wantErr: is(ErrBadResponse),
			dials:   1, requests: 1, thenDials: 2,
		},
		{
			name: "wrong proto: dropped, never resent",
			script: reply(func(req *wire.Message) *wire.Message {
				return &wire.Message{Kind: wire.KindReplies, Proto: wire.ProtoDial, Round: req.Round}
			}),
			wantErr: is(ErrBadResponse),
			dials:   1, requests: 1, thenDials: 2,
		},
		{
			name: "wrong round: dropped, never resent",
			script: reply(func(req *wire.Message) *wire.Message {
				return &wire.Message{Kind: wire.KindReplies, Proto: req.Proto, Round: req.Round + 7}
			}),
			wantErr: is(ErrBadResponse),
			dials:   1, requests: 1, thenDials: 2,
		},
		{
			name: "KindError for another round: not a refusal of this one",
			script: reply(func(req *wire.Message) *wire.Message {
				return wire.ErrorMessage(req.Proto, req.Round+7, errors.New("stale"))
			}),
			wantErr: is(ErrBadResponse),
			dials:   1, requests: 1, thenDials: 2,
		},
		{
			// The shard leg's case: right kind, proto and round, but the
			// wrong shard index or reply count (wire.CheckShardReply).
			name: "answer fails the leg's own check: dropped, never resent", script: reply(okReply),
			check:   func(*wire.Message) error { return errors.New("wrong reply count") },
			wantErr: is(ErrBadResponse),
			dials:   1, requests: 1, thenDials: 2,
		},
		{
			name:    "malformed authenticated frame: dropped, never resent",
			script:  reply(func(*wire.Message) *wire.Message { return garbage }),
			wantErr: is(wire.ErrMalformed),
			dials:   1, requests: 1, thenDials: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := transport.NewMem()
			pub, priv := box.KeyPairFromSeed([]byte("leg-remote"))
			_, myPriv := box.KeyPairFromSeed([]byte("leg-peer"))
			remote := startLegRemote(t, mem, "remote", priv, tc.deaf, tc.script)
			var network transport.Network = mem
			if tc.tamper {
				mitm := transport.NewMITM(mem)
				mitm.Intercept("remote", func(dir transport.Direction, index int, rec []byte) [][]byte {
					if dir == transport.ServerToClient && index >= 1 {
						rec[len(rec)/2] ^= 1
					}
					return [][]byte{rec}
				})
				network = mitm
			}
			p := &Peer{Net: network, Addr: "remote", Priv: myPriv, Pub: pub, Timeout: tc.timeout}
			defer p.Close()

			body := [][]byte{[]byte("onion")}
			resp, err := p.Do(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: 1, Body: body}, tc.check)
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("round 1: %v", err)
			case tc.wantErr == nil && (resp.Kind != wire.KindReplies || resp.Round != 1 || len(resp.Body) != 1):
				t.Fatalf("round 1 answer: %+v", resp)
			case tc.wantErr != nil && !tc.wantErr(err):
				t.Fatalf("round 1 returned %v", err)
			}
			if d, r := remote.counts(); d != tc.dials || r != tc.requests {
				t.Fatalf("round 1 took %d dials and %d sends, want %d and %d", d, r, tc.dials, tc.requests)
			}
			if tc.thenDials == 0 {
				return
			}
			if _, err := p.Do(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: 2}, nil); err != nil {
				t.Fatalf("round 2: %v", err)
			}
			if d, _ := remote.counts(); d != tc.thenDials {
				t.Fatalf("%d dials after round 2, want %d", d, tc.thenDials)
			}
		})
	}
}

// TestReplySizePolicy: a successor or a shard that answers with the right
// number of replies, one of them the wrong size, said something wrong with
// the right key: the round fails as ErrBadResponse (carrying
// ErrReplyMismatch), is never resent and — on the shard leg — never
// degraded around. Before the check the off-size reply was sealed and
// passed upstream with a nil error; sealing into fixed-size slots, it
// would be a panic.
func TestReplySizePolicy(t *testing.T) {
	resize := func(kind wire.Kind, size, delta int) func(int, *wire.Message) (*wire.Message, bool) {
		return func(_ int, req *wire.Message) (*wire.Message, bool) {
			resp := &wire.Message{Kind: kind, Proto: req.Proto, Round: req.Round, Bucket: req.Bucket}
			for range req.Body {
				resp.Body = append(resp.Body, make([]byte, size))
			}
			resp.Body[1] = make([]byte, size+delta)
			return resp, false
		}
	}
	for name, delta := range map[string]int{"1 byte short": -1, "16 bytes long": 16} {
		t.Run("successor/"+name, func(t *testing.T) {
			mem := transport.NewMem()
			pubs, privs, err := NewChainKeys(2)
			if err != nil {
				t.Fatal(err)
			}
			remote := startLegRemote(t, mem, "remote", privs[1], false, resize(wire.KindReplies, convo.SealedSize+box.Overhead, delta))
			hop, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0], Net: mem, NextAddr: "remote"})
			if err != nil {
				t.Fatal(err)
			}
			defer hop.Close()
			var batch [][]byte
			for i := 0; i < 3; i++ {
				o, _, _ := newUser(t, "u").convoOnion(t, 1, pubs, nil, nil)
				batch = append(batch, o)
			}
			replies, err := hop.ConvoRound(1, batch)
			var asRemote *RemoteError
			if replies != nil || !errors.Is(err, ErrBadResponse) || !errors.Is(err, ErrReplyMismatch) || errors.As(err, &asRemote) {
				t.Fatalf("round with an off-size reply returned %d replies, %v", len(replies), err)
			}
			if d, r := remote.counts(); d != 1 || r != 1 {
				t.Fatalf("%d dials and %d sends, want 1 and 1: a wrong answer is never resent", d, r)
			}
		})
		t.Run("shard/"+name, func(t *testing.T) {
			mem := transport.NewMem()
			pub, priv := box.KeyPairFromSeed([]byte("leg-remote"))
			_, myPriv := box.KeyPairFromSeed([]byte("leg-peer"))
			remote := startLegRemote(t, mem, "remote", priv, false, resize(wire.KindShardReply, convo.SealedSize, delta))
			var degraded atomic.Int32
			router, err := NewShardRouter(Config{
				Net: mem, ShardAddrs: []string{"remote"}, ShardPubs: []box.PublicKey{pub}, Priv: myPriv,
				ShardPolicy: ShardDegrade, OnShardDegraded: func(uint64, int, string, error) { degraded.Add(1) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			reqs := [][]byte{make([]byte, convo.RequestSize), make([]byte, convo.RequestSize), make([]byte, convo.RequestSize)}
			replies, err := router.Exchange(1, reqs)
			var asRemote *RemoteError
			if replies != nil || !errors.As(err, &asRemote) || !errors.Is(err, ErrBadResponse) || !errors.Is(err, ErrReplyMismatch) {
				t.Fatalf("exchange with an off-size reply returned %d replies, %v", len(replies), err)
			}
			if d, r := remote.counts(); d != 1 || r != 1 || degraded.Load() != 0 {
				t.Fatalf("%d dials, %d sends, %d degraded: want 1, 1, 0", d, r, degraded.Load())
			}
		})
	}
}

// TestPeerClosedNeverDials: a dead process makes no new connections.
func TestPeerClosedNeverDials(t *testing.T) {
	mem := transport.NewMem()
	pub, priv := box.KeyPairFromSeed([]byte("leg-remote"))
	remote := startLegRemote(t, mem, "remote", priv, false, nil)
	p := &Peer{Net: mem, Addr: "remote", Priv: priv, Pub: pub}
	if _, err := p.Do(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: 2}, nil); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Do(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: 3}, nil); err == nil {
		t.Fatal("Do after Close succeeded")
	}
	if d, r := remote.counts(); d != 1 || r != 1 {
		t.Fatalf("%d dials and %d sends, want the 1 and 1 from before Close", d, r)
	}
}

// cutNet remembers the latest connection dialed to each address so a
// test can sever it mid-round.
type cutNet struct {
	transport.Network
	mu    sync.Mutex
	conns map[string]net.Conn
}

func (n *cutNet) Dial(addr string) (net.Conn, error) {
	c, err := n.Network.Dial(addr)
	if err == nil {
		n.mu.Lock()
		n.conns[addr] = c
		n.mu.Unlock()
	}
	return c, err
}

// TestDegradeCutAfterDeliveryAborts pins the one place the unified leg
// policy changed what ShardDegrade does. The connection to a live shard
// is cut after the shard consumed the round but before its reply
// arrived. The router's Peer resends once, as every leg does; the shard's
// strictly-increasing round check refuses the round it already ran; and
// an authenticated refusal is never degraded around, so the round aborts.
// (The shard-leg client this replaced never resent after a successful
// send and zero-filled here.) A shard that is dead or unreachable — the
// resend cannot reach it either — still degrades.
func TestDegradeCutAfterDeliveryAborts(t *testing.T) {
	fix := startShards(t, 2)
	defer fix.stop()
	cut := &cutNet{Network: fix.mem, conns: make(map[string]net.Conn)}
	mitm := transport.NewMITM(cut)
	var armed atomic.Bool
	armed.Store(true)
	mitm.Intercept(addrName(1), func(dir transport.Direction, index int, rec []byte) [][]byte {
		// Server→client record 0 is the handshake; record 1 is the shard's
		// reply, which exists only because the shard ran the round.
		if dir == transport.ServerToClient && index >= 1 && armed.CompareAndSwap(true, false) {
			cut.mu.Lock()
			cut.conns[addrName(1)].Close()
			cut.mu.Unlock()
			return nil
		}
		return [][]byte{rec}
	})
	var degraded atomic.Int32
	router := fix.routerOn(t, mitm, 0, ShardDegrade, func(uint64, int, string, error) { degraded.Add(1) })
	defer router.Close()

	// Requests for both shards, so shard 1 has something to consume.
	var reqs [][]byte
	for v := 0; len(reqs) < 8; v++ {
		b := make([]byte, convo.RequestSize)
		b[0], b[5] = byte(v), byte(v*31)
		reqs = append(reqs, b)
	}
	_, err := router.Exchange(1, reqs)
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Addr != addrName(1) {
		t.Fatalf("cut after delivery returned %v, want a RemoteError naming shard 1", err)
	}
	if !strings.Contains(remote.Msg, ErrRoundReplay.Error()) {
		t.Fatalf("abort cause %q is not the shard's replay refusal", remote.Msg)
	}
	if n := degraded.Load(); n != 0 {
		t.Fatalf("router degraded around %d shards; a refusal must abort", n)
	}
	// The resend's connection is healthy: the next round completes on it.
	if _, err := router.Exchange(2, reqs); err != nil {
		t.Fatalf("round after the cut: %v", err)
	}
}

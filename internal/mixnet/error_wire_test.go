package mixnet

import (
	"errors"
	"strings"
	"testing"

	"vuvuzela/internal/noise"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// TestHandleConnSendsErrorReply: a server that rejects a round answers
// with a KindError frame carrying the cause, instead of closing the
// connection and leaving the predecessor with a bare EOF.
func TestHandleConnSendsErrorReply(t *testing.T) {
	net := transport.NewMem()
	pubs, privs, err := NewChainKeys(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{Position: 0, ChainPubs: pubs, Priv: privs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, err := net.Listen("last")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	conn := dialEntry(t, net, "last", pubs[0])
	defer conn.Close()

	send := func(round uint64) *wire.Message {
		t.Helper()
		if err := conn.Send(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: round}); err != nil {
			t.Fatal(err)
		}
		resp, err := conn.Recv()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		return resp
	}

	if resp := send(1); resp.Kind != wire.KindReplies {
		t.Fatalf("round 1: kind %d, want replies", resp.Kind)
	}
	// Replaying round 1 violates the strictly-increasing round check.
	resp := send(1)
	if resp.Kind != wire.KindError || resp.Round != 1 {
		t.Fatalf("replay: kind=%d round=%d, want error for round 1", resp.Kind, resp.Round)
	}
	if !strings.Contains(resp.ErrorString(), "round") {
		t.Fatalf("error string %q does not name the cause", resp.ErrorString())
	}
	// The connection survives the error: round 2 proceeds on it.
	if resp := send(2); resp.Kind != wire.KindReplies {
		t.Fatalf("round 2 after error: kind %d", resp.Kind)
	}
}

// TestRemoteErrorSurfacedByForward: a mixing server forwarding to a
// successor that rejects the round gets a RemoteError naming the
// successor's message, with no blind redial of a round the successor
// already consumed.
func TestRemoteErrorSurfacedByForward(t *testing.T) {
	net := transport.NewMem()
	pubs, privs, err := NewChainKeys(2)
	if err != nil {
		t.Fatal(err)
	}
	last, err := NewServer(Config{Position: 1, ChainPubs: pubs, Priv: privs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer last.Close()
	l, err := net.Listen("last")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go last.Serve(l)

	// AllowRoundReuse on the first server only, so the replayed round
	// passes the local check and reaches the strict successor.
	first, err := NewServer(Config{
		Position: 0, ChainPubs: pubs, Priv: privs[0],
		ConvoNoise: noise.Fixed{N: 1}, AllowRoundReuse: true,
		Net: net, NextAddr: "last",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer first.Close()

	alice := newUser(t, "alice")
	o1, _, _ := alice.convoOnion(t, 1, pubs, nil, nil)
	if _, err := first.ConvoRound(1, [][]byte{o1}); err != nil {
		t.Fatalf("round 1: %v", err)
	}
	_, err = first.ConvoRound(1, [][]byte{o1})
	if err == nil {
		t.Fatal("replayed round succeeded through a strict successor")
	}
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(remote.Msg, "round") {
		t.Fatalf("remote message %q does not name the cause", remote.Msg)
	}

	// The chain is still usable for the next round over the same
	// connection.
	o2, _, _ := alice.convoOnion(t, 2, pubs, nil, nil)
	if _, err := first.ConvoRound(2, [][]byte{o2}); err != nil {
		t.Fatalf("round 2 after remote error: %v", err)
	}
}

// TestDialRoundTooLargeRefused: position 0 accepts any entry key, so a
// hostile entry can announce any bucket count. More buckets than a frame
// has parts are refused before the round is consumed; per-bucket noise
// that could not travel in one frame, on a mixing server or on the last
// one, is refused once drawn and before any of it is allocated. Either
// way the entry gets a KindError, and an honest round still succeeds on
// the same connection.
func TestDialRoundTooLargeRefused(t *testing.T) {
	for _, tc := range []struct {
		name     string
		servers  int
		noise    noise.Distribution
		m        uint32
		consumed bool
	}{
		{"buckets beyond a frame, no noise", 2, nil, wire.MaxBodyParts + 1, false},
		{"mixing server's noise beyond a frame", 2, noise.Fixed{N: 4}, 1 << 21, true},
		{"last server's noise beyond a frame", 1, noise.Fixed{N: 8}, 1 << 21, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			network := transport.NewMem()
			pubs, privs, err := NewChainKeys(tc.servers)
			if err != nil {
				t.Fatal(err)
			}
			_, addrs, stop, err := StartChain(network, pubs, privs, Config{DialNoise: tc.noise}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			conn := dialEntry(t, network, addrs[0], pubs[0])
			defer conn.Close()
			send := func(round uint64, m uint32) *wire.Message {
				t.Helper()
				if err := conn.Send(&wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoDial, Round: round, M: m}); err != nil {
					t.Fatal(err)
				}
				resp, err := conn.Recv()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				return resp
			}

			resp := send(1, tc.m)
			if resp.Kind != wire.KindError || !strings.Contains(resp.ErrorString(), "frame") {
				t.Fatalf("M = %d: kind %d (%q), want an error naming the frame", tc.m, resp.Kind, resp.ErrorString())
			}
			honest := uint64(1)
			if tc.consumed {
				honest = 2
			}
			if resp := send(honest, 1); resp.Kind != wire.KindReplies {
				t.Fatalf("honest round %d after the refusal: kind %d (%q)", honest, resp.Kind, resp.ErrorString())
			}
		})
	}
}

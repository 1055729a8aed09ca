//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds; `go test -race` skips the file.
package onion

import (
	"bytes"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// TestUnwrapAllocs pins what a server pays per onion, unwrapping in the
// frame it received with its key parsed once: nothing — the ephemeral key
// is read where it lies, the ladder works on the stack, and the reply key
// and the inner onion are written into memory the round already owns. The
// copying Unwrap adds its copy of the onion and the reply key it returns
// (2); the raw-key UnwrapLayer parses the private key on its stack (2).
func TestUnwrapAllocs(t *testing.T) {
	pubs, privs := testChain(t, 3)
	wire, _, err := Wrap(make([]byte, 256), 9, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := box.NewDHKey(&privs[0])
	// One fresh onion per run, copied outside the measured function: the
	// in-place path consumes the bytes it is handed.
	const runs = 100
	bufs := make([][]byte, runs+1)
	for i := range bufs {
		bufs[i] = bytes.Clone(wire)
	}
	var shared [box.KeySize]byte
	next := 0
	inPlace := testing.AllocsPerRun(runs, func() {
		if _, err := UnwrapInPlace(bufs[next], key, &shared, 9, 0); err != nil {
			t.Fatal(err)
		}
		next++
	})
	parsed := testing.AllocsPerRun(runs, func() {
		if _, _, err := Unwrap(wire, key, 9, 0); err != nil {
			t.Fatal(err)
		}
	})
	raw := testing.AllocsPerRun(runs, func() {
		if _, _, err := UnwrapLayer(wire, &privs[0], 9, 0); err != nil {
			t.Fatal(err)
		}
	})
	if inPlace != 0 || parsed != 2 || raw != 2 {
		t.Fatalf("per onion, UnwrapInPlace allocates %.0f times (want 0), Unwrap %.0f (want 2), UnwrapLayer %.0f (want 2)", inPlace, parsed, raw)
	}
}

// TestReplyAllocs pins the reply path: a server seals into its round's
// buffer for nothing, and a client opens all three layers in the one copy
// UnwrapReply makes.
func TestReplyAllocs(t *testing.T) {
	pubs, _ := testChain(t, 3)
	_, keys, err := Wrap(make([]byte, 272), 9, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	reply := make([]byte, 256)
	out := make([]byte, ReplySize(len(reply), 1))
	if n := testing.AllocsPerRun(100, func() { SealReplyInto(out, reply, keys[2], 9, 2) }); n != 0 {
		t.Errorf("SealReplyInto allocates %.0f times, want 0", n)
	}
	for layer := 2; layer >= 0; layer-- {
		reply = SealReply(reply, keys[layer], 9, layer)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := UnwrapReply(reply, 9, 0, keys); err != nil {
			t.Fatal(err)
		}
	})
	if n != 1 {
		t.Errorf("UnwrapReply over 3 layers allocates %.0f times, want 1", n)
	}
}

// TestWrapAllocs pins the allocation cost of building an onion. A noise
// onion — what a mixing server builds by the hundred per round — is
// NewPath over parsed peers, whose agreements allocate nothing, then Seal:
// the path and the onion, 2 at any depth. A client's one-shot Wrap of raw
// keys agrees each layer on the ladder into the path's own storage: 1 per
// layer (the ephemeral key, drawn through an io.Reader) + 3 (the path, the
// onion, the key slice).
func TestWrapAllocs(t *testing.T) {
	pubs, _ := testChain(t, 3)
	peers := testPeers(t, pubs)
	payload := make([]byte, 272)
	wrap3 := testing.AllocsPerRun(100, func() {
		if _, _, err := Wrap(payload, 9, 0, pubs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if wrap3 != 3+3 {
		t.Errorf("Wrap over 3 layers allocates %.0f times, want 6", wrap3)
	}
	for layers := 1; layers <= 3; layers++ {
		got := testing.AllocsPerRun(100, func() {
			path, err := NewPath(peers[3-layers:], nil)
			if err != nil {
				t.Fatal(err)
			}
			path.Seal(payload, 9, 3-layers)
		})
		if got != 2 {
			t.Errorf("NewPath + Seal over %d layers allocates %.0f times, want 2", layers, got)
		}
	}
}

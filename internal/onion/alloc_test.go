//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds; `go test -race` skips the file.
package onion

import (
	"bytes"
	"runtime"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// TestUnwrapAllocs pins what a server pays per onion, unwrapping in the
// frame it received with its key parsed once: 3, all inside crypto/ecdh
// (the onion's ephemeral key parsed, 2, and the raw shared secret, 1) —
// the ephemeral key is read where it lies, the reply key and the inner
// onion are written into memory the round already owns. The copying
// Unwrap adds its copy of the onion and the reply key it returns (5); the
// raw-key UnwrapLayer adds the private key's parse, where crypto/ecdh
// derives and stores the public key (9).
func TestUnwrapAllocs(t *testing.T) {
	pubs, privs := testChain(t, 3)
	wire, _, err := Wrap(make([]byte, 256), 9, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := box.NewDHKey(&privs[0])
	if err != nil {
		t.Fatal(err)
	}
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
	if inPlace != 3 || parsed != 5 || raw != 9 {
		t.Fatalf("per onion, UnwrapInPlace allocates %.0f times (want 3), Unwrap %.0f (want 5), UnwrapLayer %.0f (want 9)", inPlace, parsed, raw)
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

// meanAllocs is testing.AllocsPerRun without its rounding down to a whole
// number: crypto/ecdh's GenerateKey allocates one extra byte on a coin
// flip, so wrapping costs a half-integer mean per layer.
func meanAllocs(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestWrapAllocs pins the allocation cost of building an onion. A noise
// onion — what a mixing server builds by the hundred per round — is
// NewPath over parsed peers, whose agreements allocate nothing, then Seal:
// the path and the onion, 2 at any depth (it was 10.5 per layer + 2 on
// crypto/ecdh's ladder). A client's one-shot Wrap of raw keys stays on the
// ladder, each layer's key agreed into the path's own storage: a mean of
// 9.5 per layer (the ephemeral key's generation, with a coin-flip byte,
// and the exchange) + 3 (the path, the onion, the key slice), where it was
// 10.5 + 2.
func TestWrapAllocs(t *testing.T) {
	pubs, _ := testChain(t, 3)
	peers := testPeers(t, pubs)
	payload := make([]byte, 272)
	const slack = 0.25 // the coin flips average out to ±0.03 over 1000 runs
	wrap3 := meanAllocs(1000, func() {
		if _, _, err := Wrap(payload, 9, 0, pubs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if wrap3 > 3*9.5+3+slack {
		t.Errorf("Wrap over 3 layers allocates %.2f times, want at most 31.5", wrap3)
	}
	for layers := 1; layers <= 3; layers++ {
		got := meanAllocs(1000, func() {
			path, err := NewPath(peers[3-layers:], nil)
			if err != nil {
				t.Fatal(err)
			}
			path.Seal(payload, 9, 3-layers)
		})
		if got != 2 {
			t.Errorf("NewPath + Seal over %d layers allocates %.2f times, want 2", layers, got)
		}
	}
}

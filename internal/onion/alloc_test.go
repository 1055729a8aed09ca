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

// TestWrapAllocs pins the allocation cost of building an onion against
// what Wrap cost when it sealed each layer into a buffer of its own: a
// mean of 12.5, 24 and 35.5 for 1, 2 and 3 layers (10.5 per layer for the
// key agreement, one buffer per layer, one key slice). Sealing in one
// buffer must leave a client's 3-layer Wrap at least one allocation
// cheaper, and a mixing server's NewPath + Seal — what every noise onion
// costs — no dearer than the old Wrap of the same depth.
func TestWrapAllocs(t *testing.T) {
	pubs, _ := testChain(t, 3)
	payload := make([]byte, 272)
	const slack = 0.25 // the coin flips average out to ±0.03 over 1000 runs
	wrap3 := meanAllocs(1000, func() {
		if _, _, err := Wrap(payload, 9, 0, pubs, nil); err != nil {
			t.Fatal(err)
		}
	})
	if wrap3 > 35.5-1+slack {
		t.Errorf("Wrap over 3 layers allocates %.2f times, want at most 34.5", wrap3)
	}
	for layers, was := range map[int]float64{1: 12.5, 2: 24} {
		got := meanAllocs(1000, func() {
			path, err := NewPath(pubs[3-layers:], nil)
			if err != nil {
				t.Fatal(err)
			}
			path.Seal(payload, 9, 3-layers)
		})
		if got > was+slack {
			t.Errorf("NewPath + Seal over %d layers allocates %.2f times, Wrap used to take %.1f", layers, got, was)
		}
	}
}

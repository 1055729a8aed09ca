//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds; `go test -race` skips the file.
package onion

import (
	"runtime"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// TestUnwrapAllocs pins what a server pays per onion with its key parsed
// once: the onion's ephemeral key copied out (1) and parsed (2), the raw
// and the derived shared secret (2) and the inner onion (1). The raw-key
// UnwrapLayer adds the private key's parse — crypto/ecdh derives and
// stores the public key, 4 more — which is the work the parsed key takes
// out of the round.
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
	parsed := testing.AllocsPerRun(100, func() {
		if _, _, err := Unwrap(wire, key, 9, 0); err != nil {
			t.Fatal(err)
		}
	})
	raw := testing.AllocsPerRun(100, func() {
		if _, _, err := UnwrapLayer(wire, &privs[0], 9, 0); err != nil {
			t.Fatal(err)
		}
	})
	if parsed != 6 || raw != 10 {
		t.Fatalf("Unwrap allocates %.0f times per onion (want 6), UnwrapLayer %.0f (want 10)", parsed, raw)
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

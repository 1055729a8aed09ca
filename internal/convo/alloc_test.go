//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds (`make allocs`).
package convo

import (
	"testing"

	"vuvuzela/internal/noise"
)

// TestOpenReplyAllocs: a client opens its partner's sealed message
// straight into an array — the nonce hashed from a fixed-size input, the
// plaintext written by box.OpenInto — so only a non-empty message's own
// bytes are allocated.
func TestOpenReplyAllocs(t *testing.T) {
	alicePub, alicePriv := keyPair(t, "alice")
	bobPub, _ := keyPair(t, "bob")
	secret, err := DeriveSecret(&alicePriv, &bobPub)
	if err != nil {
		t.Fatal(err)
	}
	for msg, want := range map[string]float64{"": 0, "hello": 1} {
		req, err := BuildRequest(secret, 3, &alicePub, []byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(100, func() {
			if m, ok := OpenReply(secret, 3, &alicePub, req.Sealed[:]); !ok || string(m) != msg {
				t.Fatal("reply did not open")
			}
		})
		if got != want {
			t.Errorf("OpenReply of %q allocates %.0f times, want %.0f", msg, got, want)
		}
	}
}

// TestNoiseFillAllocs: cover-traffic requests are drawn into buffers the
// caller owns without allocating.
func TestNoiseFillAllocs(t *testing.T) {
	dst := NoiseGen{Dist: noise.Fixed{N: 8}}.Generate()
	if n := testing.AllocsPerRun(20, func() { NoiseGen{}.Fill(dst, 8) }); n != 0 {
		t.Errorf("Fill allocates %.0f times for %d requests, want 0", n, len(dst))
	}
}

package ref25519

import (
	"crypto/rand"
	"errors"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/crypto/salsa"
	"vuvuzela/internal/crypto/x25519"
)

// TestPrecomputeMatchesReferenceConstruction validates the full NaCl
// "beforenm" pipeline against independent parts: the production
// Precompute (internal/crypto/x25519's ladder + HSalsa20) — through a
// parsed DHKey and through the raw-key wrapper, whose public half comes
// from the kernel's comb — must equal HSalsa20 applied to the from-scratch
// RFC 7748 ladder's raw shared secret. With TestLadderMatchesReference
// this ties every DH code path in the repository to this package.
func TestPrecomputeMatchesReferenceConstruction(t *testing.T) {
	for i := 0; i < 5; i++ {
		alicePub, alicePriv, err := box.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		bobPub, bobPriv, err := box.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}

		fast, err := box.Precompute(&bobPub, &alicePriv)
		if err != nil {
			t.Fatal(err)
		}
		alice := box.NewDHKey(&alicePriv)
		if alice.Public() != alicePub {
			t.Fatalf("iteration %d: parsed key's public half %x, generated %x", i, alice.Public(), alicePub)
		}
		parsed, err := alice.Precompute(&bobPub)
		if err != nil {
			t.Fatal(err)
		}
		if *parsed != *fast {
			t.Fatalf("iteration %d: parsed key %x != raw key %x", i, *parsed, *fast)
		}

		var scalar, point [32]byte
		copy(scalar[:], alicePriv[:])
		copy(point[:], bobPub[:])
		raw, err := X25519(&scalar, &point)
		if err != nil {
			t.Fatal(err)
		}
		var ref [box.KeySize]byte
		var zeros [16]byte
		salsa.HSalsa20(&ref, &raw, &zeros)

		if *fast != ref {
			t.Fatalf("iteration %d: production %x != reference %x", i, *fast, ref)
		}

		// The reverse direction agrees too.
		back, err := box.Precompute(&alicePub, &bobPriv)
		if err != nil {
			t.Fatal(err)
		}
		if *back != ref {
			t.Fatal("reverse direction disagrees with reference")
		}
	}
}

// TestLadderMatchesReference holds the production ladder to the
// from-scratch one, error for error, over random scalar/point pairs —
// about half of them twist points, which the ladder takes like any other —
// and the low-order points: the reference's error is the production
// ladder's all-zero output and box's ErrKeyExchange. The ladder runs both
// its paths, each point batched with the next, so the IFMA path runs it in
// a lane.
func TestLadderMatchesReference(t *testing.T) { ladderPaths(t, ladderMatchesReference) }

func ladderMatchesReference(t *testing.T) {
	points := make([][32]byte, 300)
	for i := range points {
		rand.Read(points[i][:])
	}
	for _, h := range []string{
		"0000000000000000000000000000000000000000000000000000000000000000",
		"0100000000000000000000000000000000000000000000000000000000000000",
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
		"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	} {
		points = append(points, fromHex(t, h))
	}
	for i := range points {
		var scalar [32]byte
		rand.Read(scalar[:])
		want, refErr := X25519(&scalar, &points[i])
		var got, next [32]byte
		x25519.Ladder([]*[32]byte{&got, &next}, &scalar, []*[32]byte{&points[i], &points[(i+1)%len(points)]})
		_, boxErr := box.Precompute((*box.PublicKey)(&points[i]), (*box.PrivateKey)(&scalar))
		if got != want || (refErr != nil) != errors.Is(boxErr, box.ErrKeyExchange) {
			t.Fatalf("scalar %x, u=%x: ladder %x (box %v), reference %x (%v)", scalar, points[i], got, boxErr, want, refErr)
		}
	}
}

// ladderPaths runs f on x25519.Ladder's IFMA kernel (on a CPU without
// one, an "ifma" row skips, naming what the CPU lacks) and again as
// "scalar", on the scalar code, forced.
func ladderPaths(t *testing.T, f func(t *testing.T)) {
	if x25519.IFMA {
		f(t)
	} else {
		t.Run("ifma", func(t *testing.T) { t.Skip("no IFMA kernel: " + x25519.WhyNoIFMA) })
	}
	t.Run("scalar", func(t *testing.T) {
		saved := x25519.IFMA
		defer func() { x25519.IFMA = saved }()
		x25519.IFMA = false
		f(t)
	})
}

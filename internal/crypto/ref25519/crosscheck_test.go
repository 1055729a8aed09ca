package ref25519

import (
	"crypto/rand"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/crypto/salsa"
)

// TestPrecomputeMatchesReferenceConstruction validates the full NaCl
// "beforenm" pipeline against independent parts: the production
// Precompute (crypto/ecdh + HSalsa20) — through a parsed DHKey and through
// the raw-key wrapper — must equal HSalsa20 applied to the from-scratch
// RFC 7748 ladder's raw shared secret. This ties together every DH code
// path in the repository.
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
		alice, err := box.NewDHKey(&alicePriv)
		if err != nil {
			t.Fatal(err)
		}
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

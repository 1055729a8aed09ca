//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds; `go test -race` skips the file.
package onion

import (
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

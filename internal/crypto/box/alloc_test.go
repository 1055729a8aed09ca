//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds (`make allocs`).
package box

import (
	"fmt"
	"testing"
)

// TestPeerAgreeAllocs: agreeing a path's keys with parsed Peers — every
// noise onion — allocates nothing: both mults of every layer run on tables
// built ahead, in one batch, and the keys are written into the caller's
// agreements. Nor does a parsed key's exchange, alone or in a batch: the
// ladder works on the stack.
func TestPeerAgreeAllocs(t *testing.T) {
	pubs := make([]PublicKey, MaxBatch)
	for i := range pubs {
		pubs[i], _ = mustKeyPair(t)
	}
	peers, err := NewPeers(pubs[:2])
	if err != nil {
		t.Fatal(err)
	}
	a := make([]Agreement, len(peers))
	if n := testing.AllocsPerRun(100, func() {
		if err := Agree(a, peers); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Agree over a two-layer path allocates %.0f times, want 0", n)
	}

	_, priv := mustKeyPair(t)
	key := NewDHKey(&priv)
	shared := make([][KeySize]byte, MaxBatch)
	ptrs := make([]*PublicKey, MaxBatch)
	for i := range ptrs {
		ptrs[i] = &pubs[i]
	}
	errs := make([]error, MaxBatch)
	if n := testing.AllocsPerRun(20, func() {
		if err := key.PrecomputeInto(&shared[0], ptrs[0]); err != nil {
			t.Fatal(err)
		}
		key.PrecomputeBatch(shared, ptrs, errs)
	}); n != 0 {
		t.Errorf("PrecomputeInto and PrecomputeBatch allocate %.0f times, want 0", n)
	}
}

// TestSealOpenAllocs: sealing and opening into the caller's buffers
// allocates nothing at any length, on salsa's kernel and on its block
// loop: the first keystream pass and the rest's lie on the stack.
func TestSealOpenAllocs(t *testing.T) {
	salsaPaths(t, func(t *testing.T) {
		var key [KeySize]byte
		var nonce [NonceSize]byte
		for _, n := range []int{0, 31, 32, 300, 64 << 10} {
			t.Run(fmt.Sprint(n), func(t *testing.T) {
				msg := make([]byte, n)
				ct := make([]byte, Overhead+n)
				if a := testing.AllocsPerRun(20, func() {
					SealInto(ct, msg, &nonce, &key)
					if err := OpenInto(msg, ct, &nonce, &key); err != nil {
						t.Fatal(err)
					}
				}); a != 0 {
					t.Errorf("SealInto and OpenInto of %d bytes allocate %.0f times, want 0", n, a)
				}
			})
		}
	})
}

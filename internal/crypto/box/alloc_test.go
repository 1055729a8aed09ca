//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds (`make allocs`).
package box

import "testing"

// TestPeerAgreeAllocs: a key agreement with a parsed Peer — every layer of
// every noise onion — allocates nothing: the scalar is drawn through the
// caller's key storage, and both mults run on tables built ahead.
func TestPeerAgreeAllocs(t *testing.T) {
	pub, _ := mustKeyPair(t)
	peer, err := NewPeer(&pub)
	if err != nil {
		t.Fatal(err)
	}
	var shared [KeySize]byte
	if n := testing.AllocsPerRun(100, func() {
		if _, err := peer.Agree(&shared, nil); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Peer.Agree allocates %.0f times, want 0", n)
	}
}

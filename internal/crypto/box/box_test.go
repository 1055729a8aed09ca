package box

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func mustKeyPair(t *testing.T) (PublicKey, PrivateKey) {
	t.Helper()
	pub, priv, err := GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestSealOpenRoundTrip(t *testing.T) { salsaPaths(t, sealOpenRoundTrip) }

func sealOpenRoundTrip(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	rand.Read(key[:])
	rand.Read(nonce[:])
	for _, n := range []int{0, 1, 31, 32, 33, 240, 256, 1000} {
		msg := make([]byte, n)
		rand.Read(msg)
		ct := Seal(msg, &nonce, &key)
		if len(ct) != n+Overhead {
			t.Fatalf("len %d: ciphertext length %d, want %d", n, len(ct), n+Overhead)
		}
		pt, err := Open(ct, &nonce, &key)
		if err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("len %d: plaintext mismatch", n)
		}
	}
}

func TestOpenRejectsTamper(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	rand.Read(key[:])
	msg := []byte("the conversation payload, 240 bytes of it")
	ct := Seal(msg, &nonce, &key)
	for i := range ct {
		bad := append([]byte(nil), ct...)
		bad[i] ^= 1
		if _, err := Open(bad, &nonce, &key); err == nil {
			t.Fatalf("accepted ciphertext tampered at byte %d", i)
		}
	}
}

func TestOpenRejectsWrongNonce(t *testing.T) {
	var key [KeySize]byte
	var n1, n2 [NonceSize]byte
	n2[0] = 1
	ct := Seal([]byte("hi"), &n1, &key)
	if _, err := Open(ct, &n2, &key); err == nil {
		t.Fatal("accepted ciphertext under wrong nonce")
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	for _, n := range []int{0, 1, Overhead - 1} {
		if _, err := Open(make([]byte, n), &nonce, &key); err == nil {
			t.Fatalf("accepted %d-byte ciphertext", n)
		}
	}
}

// TestBoxBothDirections verifies Alice→Bob and Bob→Alice use the same
// precomputed key, as in NaCl.
func TestBoxBothDirections(t *testing.T) {
	alicePub, alicePriv := mustKeyPair(t)
	bobPub, bobPriv := mustKeyPair(t)

	ka, err := Precompute(&bobPub, &alicePriv)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Precompute(&alicePub, &bobPriv)
	if err != nil {
		t.Fatal(err)
	}
	if *ka != *kb {
		t.Fatal("precomputed keys differ between directions")
	}

	var nonce [NonceSize]byte
	nonce[0] = 42
	pt, err := Open(Seal([]byte("hello bob"), &nonce, ka), &nonce, kb)
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "hello bob" {
		t.Fatalf("got %q", pt)
	}
}

// TestBoxWrongRecipient verifies a third party cannot open the box.
func TestBoxWrongRecipient(t *testing.T) {
	alicePub, alicePriv := mustKeyPair(t)
	bobPub, _ := mustKeyPair(t)
	_, evePriv := mustKeyPair(t)
	toBob, err := Precompute(&bobPub, &alicePriv)
	if err != nil {
		t.Fatal(err)
	}
	asEve, err := Precompute(&alicePub, &evePriv)
	if err != nil {
		t.Fatal(err)
	}

	var nonce [NonceSize]byte
	if _, err := Open(Seal([]byte("secret"), &nonce, toBob), &nonce, asEve); err == nil {
		t.Fatal("eve opened alice's box to bob")
	}
}

func TestKeyPairFromSeedDeterministic(t *testing.T) {
	p1, s1 := KeyPairFromSeed([]byte("user-7"))
	p2, s2 := KeyPairFromSeed([]byte("user-7"))
	p3, _ := KeyPairFromSeed([]byte("user-8"))
	if p1 != p2 || s1 != s2 {
		t.Fatal("seeded key pair not deterministic")
	}
	if p1 == p3 {
		t.Fatal("different seeds produced the same key")
	}
	// The derived public key must match PublicKeyOf.
	pub := PublicKeyOf(&s1)
	if pub != p1 {
		t.Fatal("PublicKeyOf disagrees with KeyPairFromSeed")
	}
}

func TestSealAnonymousRoundTrip(t *testing.T) {
	rPub, rPriv := mustKeyPair(t)
	msg := make([]byte, 32) // invitation payload: a public key
	rand.Read(msg)
	ct, err := SealAnonymous(msg, &rPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(msg)+AnonymousOverhead {
		t.Fatalf("sealed length %d, want %d", len(ct), len(msg)+AnonymousOverhead)
	}
	// The paper's invitation: 32-byte payload → 80 bytes total.
	if len(msg) == 32 && len(ct) != 80 {
		t.Fatalf("invitation size %d, want 80 (paper §8.1)", len(ct))
	}
	r := NewDHKey(&rPriv)
	pt, err := r.OpenAnonymous(ct, &rPub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("plaintext mismatch")
	}
}

func TestOpenAnonymousWrongKey(t *testing.T) {
	rPub, _ := mustKeyPair(t)
	oPub, oPriv := mustKeyPair(t)
	ct, err := SealAnonymous([]byte("call me"), &rPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := NewDHKey(&oPriv)
	if _, err := o.OpenAnonymous(ct, &oPub); err == nil {
		t.Fatal("wrong recipient opened anonymous box")
	}
}

// TestAnonymousUnlinkable verifies two invitations from the same sender to
// the same recipient share no bytes in common position (fresh ephemeral
// keys), which is what makes dialing noise indistinguishable from real
// invitations.
func TestAnonymousUnlinkable(t *testing.T) {
	rPub, _ := mustKeyPair(t)
	msg := []byte("same payload both times, 32 b!!!")
	c1, err := SealAnonymous(msg, &rPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := SealAnonymous(msg, &rPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(c1, c2) {
		t.Fatal("two anonymous seals identical")
	}
	if bytes.Equal(c1[:KeySize], c2[:KeySize]) {
		t.Fatal("ephemeral keys reused")
	}
}

// TestSuitesRoundTrip: a sealed box is Overhead bytes longer than its
// message, opens to it, and is refused after one flipped bit.
func TestSuitesRoundTrip(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	rand.Read(key[:])
	rand.Read(nonce[:])
	msg := []byte("suite test payload")
	ct := Seal(msg, &nonce, &key)
	if len(ct) != len(msg)+Overhead {
		t.Fatal("overhead mismatch")
	}
	pt, err := Open(ct, &nonce, &key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("plaintext mismatch")
	}
	ct[len(ct)-1] ^= 1
	if _, err := Open(ct, &nonce, &key); err == nil {
		t.Fatal("accepted tampered ciphertext")
	}
}

// TestSealOpenQuick is a property test across arbitrary keys, nonces, and
// messages.
func TestSealOpenQuick(t *testing.T) {
	f := func(key [KeySize]byte, nonce [NonceSize]byte, msg []byte) bool {
		ct := Seal(msg, &nonce, &key)
		pt, err := Open(ct, &nonce, &key)
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSealInto verifies the zero-copy SealInto path agrees with Seal.
func TestSealInto(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	rand.Read(key[:])
	msg := []byte("preallocated output path")
	want := Seal(msg, &nonce, &key)
	out := make([]byte, len(msg)+Overhead)
	SealInto(out, msg, &nonce, &key)
	if !bytes.Equal(out, want) {
		t.Fatal("SealInto disagrees with Seal")
	}
}

func BenchmarkPrecompute(b *testing.B) {
	alicePub, _, _ := GenerateKey(nil)
	_, bobPriv, _ := GenerateKey(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Precompute(&alicePub, &bobPriv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeal256B(b *testing.B) {
	salsaBenchPaths(b, func(b *testing.B) {
		var key [KeySize]byte
		var nonce [NonceSize]byte
		msg := make([]byte, 256)
		b.SetBytes(256)
		for b.Loop() {
			Seal(msg, &nonce, &key)
		}
	})
}

func BenchmarkOpen256B(b *testing.B) {
	salsaBenchPaths(b, func(b *testing.B) {
		var key [KeySize]byte
		var nonce [NonceSize]byte
		ct := Seal(make([]byte, 256), &nonce, &key)
		b.SetBytes(256)
		for b.Loop() {
			if _, err := Open(ct, &nonce, &key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

package box

import (
	"encoding/hex"
	"testing"

	"vuvuzela/internal/crypto/salsa"
)

// Golden vectors freezing this implementation's outputs. The RFC/spec
// vectors in the sibling tests establish initial correctness of each
// primitive; these catch regressions in the composed constructions
// (HSalsa20 → block-0 Poly1305 key → XSalsa20-Poly1305 secretbox, and the
// X25519 → HSalsa20 precomputation) whose exact composition has no public
// vector.

func fromHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex in golden vector: %v", err)
	}
	return b
}

func TestGoldenSecretbox(t *testing.T) { salsaPaths(t, goldenSecretbox) }

func goldenSecretbox(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	for i := range key {
		key[i] = byte(i)
	}
	for i := range nonce {
		nonce[i] = byte(100 + i)
	}
	msg := []byte("vuvuzela golden vector message, 48 bytes long!!!")
	want := fromHex(t, "2353c7ae6566ad5980d9352db200677874ccefbc40d3a288909a4cf853e1cd38"+
		"48cf5bd38bd46b76c37f31f56deee5a89c57d47a3643fe97d57a780c6732fc44")
	got := Seal(msg, &nonce, &key)
	if hex.EncodeToString(got) != hex.EncodeToString(want) {
		t.Fatalf("secretbox drifted:\n got %x\nwant %x", got, want)
	}
	pt, err := Open(want, &nonce, &key)
	if err != nil || string(pt) != string(msg) {
		t.Fatalf("golden ciphertext did not open: %v", err)
	}
}

func TestGoldenXSalsa20Keystream(t *testing.T) { salsaPaths(t, goldenXSalsa20Keystream) }

func goldenXSalsa20Keystream(t *testing.T) {
	var key [32]byte
	var nonce [24]byte
	for i := range key {
		key[i] = byte(i)
	}
	for i := range nonce {
		nonce[i] = byte(100 + i)
	}
	ks := make([]byte, 64)
	subKey, subNonce := salsa.DeriveX(&key, &nonce)
	salsa.XORKeyStream(ks, ks, &subKey, &subNonce, 0)
	want := "687dffe12afa5fef7e0feb195d6cd992f49572d6194281e3c87fbb4e2106932c" +
		"02b999c93ab6cee9b0fd23943784a3183eaa38a7e4a64b1ba60c42940a8bc988"
	if hex.EncodeToString(ks) != want {
		t.Fatalf("xsalsa20 keystream drifted:\n got %x\nwant %s", ks, want)
	}
}

func TestGoldenSeededIdentities(t *testing.T) {
	aPub, aPriv := KeyPairFromSeed([]byte("golden-alice"))
	bPub, bPriv := KeyPairFromSeed([]byte("golden-bob"))
	if hex.EncodeToString(aPub[:]) != "57dfd5e891aa0dc806972845c32427ced0d5b0dc04d725730e58aa3ab3db8374" {
		t.Fatalf("seeded alice key drifted: %x", aPub)
	}
	if hex.EncodeToString(bPub[:]) != "16042c94d9ff9b9607011f3eeee338192e373d39273a6abfe4729060515a3341" {
		t.Fatalf("seeded bob key drifted: %x", bPub)
	}
	shared, err := Precompute(&bPub, &aPriv)
	if err != nil {
		t.Fatal(err)
	}
	const wantShared = "a5edf1182595e02a278fcc9d9ee6625c78e76abd793ab8e010b63d3c2485462a"
	if hex.EncodeToString(shared[:]) != wantShared {
		t.Fatalf("precomputed key drifted: %x", shared)
	}
	// And symmetric from Bob's side.
	shared2, err := Precompute(&aPub, &bPriv)
	if err != nil {
		t.Fatal(err)
	}
	if *shared2 != *shared {
		t.Fatal("precompute asymmetric")
	}
	// And the same bytes from a parsed key.
	bob := NewDHKey(&bPriv)
	shared3, err := bob.Precompute(&aPub)
	if err != nil {
		t.Fatal(err)
	}
	if bob.Public() != bPub || hex.EncodeToString(shared3[:]) != wantShared {
		t.Fatalf("parsed key drifted: public %x, precomputed %x", bob.Public(), shared3)
	}
}

package poly1305

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

// TestRFC8439Vector checks the main test vector from RFC 8439 §2.5.2.
func TestRFC8439Vector(t *testing.T) {
	key := [KeySize]byte{
		0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33,
		0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5, 0x06, 0xa8,
		0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd,
		0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49, 0xf5, 0x1b,
	}
	msg := []byte("Cryptographic Forum Research Group")
	want := [TagSize]byte{
		0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6,
		0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01, 0x27, 0xa9,
	}
	var got [TagSize]byte
	Sum(&got, msg, &key)
	if got != want {
		t.Fatalf("fast Sum mismatch:\n got %x\nwant %x", got, want)
	}
	refSum(&got, msg, &key)
	if got != want {
		t.Fatalf("reference Sum mismatch:\n got %x\nwant %x", got, want)
	}
	if !Verify(&want, msg, &key) {
		t.Fatal("Verify rejected correct tag")
	}
}

// TestCrossCheckRandom cross-checks the fast limb implementation against
// the math/big reference on random keys and messages, including lengths
// around block boundaries.
func TestCrossCheckRandom(t *testing.T) {
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 64, 255, 256, 1024} {
		for trial := 0; trial < 20; trial++ {
			var key [KeySize]byte
			if _, err := rand.Read(key[:]); err != nil {
				t.Fatal(err)
			}
			msg := make([]byte, n)
			if _, err := rand.Read(msg); err != nil {
				t.Fatal(err)
			}
			var fast, ref [TagSize]byte
			Sum(&fast, msg, &key)
			refSum(&ref, msg, &key)
			if fast != ref {
				t.Fatalf("len %d: fast %x != ref %x (key %x msg %x)", n, fast, ref, key, msg)
			}
		}
	}
}

// TestCrossCheckQuick is a property test over arbitrary inputs.
func TestCrossCheckQuick(t *testing.T) {
	f := func(key [KeySize]byte, msg []byte) bool {
		var fast, ref [TagSize]byte
		Sum(&fast, msg, &key)
		refSum(&ref, msg, &key)
		return fast == ref
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestCarryStress exercises maximal-limb inputs that stress the carry
// chains: all-0xff messages under all-0xff (pre-clamp) keys.
func TestCarryStress(t *testing.T) {
	var key [KeySize]byte
	for i := range key {
		key[i] = 0xff
	}
	for _, n := range []int{16, 17, 32, 48, 160, 16 * 64} {
		msg := bytes.Repeat([]byte{0xff}, n)
		var fast, ref [TagSize]byte
		Sum(&fast, msg, &key)
		refSum(&ref, msg, &key)
		if fast != ref {
			t.Fatalf("len %d: fast %x != ref %x", n, fast, ref)
		}
	}
}

// TestHighBitBlocks exercises the 2^128 block bit path with blocks whose
// top limb is maximal.
func TestHighBitBlocks(t *testing.T) {
	var key [KeySize]byte
	key[0] = 1
	key[16] = 0xfe
	msg := make([]byte, 64)
	for i := 0; i < len(msg); i += 8 {
		putUint64LE(msg[i:], ^uint64(0))
	}
	var fast, ref [TagSize]byte
	Sum(&fast, msg, &key)
	refSum(&ref, msg, &key)
	if fast != ref {
		t.Fatalf("fast %x != ref %x", fast, ref)
	}
}

// TestVerifyRejectsTamper verifies that any single-bit flip in the tag is
// rejected.
func TestVerifyRejectsTamper(t *testing.T) {
	var key [KeySize]byte
	if _, err := rand.Read(key[:]); err != nil {
		t.Fatal(err)
	}
	msg := []byte("round 42 exchange request")
	var tag [TagSize]byte
	Sum(&tag, msg, &key)
	for i := 0; i < TagSize; i++ {
		for bit := 0; bit < 8; bit++ {
			bad := tag
			bad[i] ^= 1 << bit
			if Verify(&bad, msg, &key) {
				t.Fatalf("accepted tampered tag (byte %d bit %d)", i, bit)
			}
		}
	}
	if !Verify(&tag, msg, &key) {
		t.Fatal("rejected valid tag")
	}
}

// TestVerifyRejectsMessageTamper verifies message modification is caught.
func TestVerifyRejectsMessageTamper(t *testing.T) {
	var key [KeySize]byte
	key[5] = 9
	msg := []byte("dead drop 0123456789abcdef")
	var tag [TagSize]byte
	Sum(&tag, msg, &key)
	bad := append([]byte(nil), msg...)
	bad[0] ^= 0x80
	if Verify(&tag, bad, &key) {
		t.Fatal("accepted tag over modified message")
	}
}

// TestZeroKeyZeroTagPlusPad documents that with r=0 the tag equals the pad
// s regardless of message — a known property of the definition.
func TestZeroKeyZeroTagPlusPad(t *testing.T) {
	var key [KeySize]byte
	copy(key[16:], []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	var tag [TagSize]byte
	Sum(&tag, []byte("anything at all"), &key)
	want := [TagSize]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	if tag != want {
		t.Fatalf("r=0 tag = %x, want pad %x", tag, want)
	}
}

// FuzzSum holds Sum to the math/big reference over fuzzed keys and
// messages up to 2 KiB. The seeds put r and s at their limbs' edges: all
// ones before clamping, zero, and r = 1 under two all-ones blocks, which
// leaves h at p + 3 for the final reduction.
func FuzzSum(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, 2<<10)
	f.Add(ones[:KeySize], ones[:2<<10])
	f.Add(ones[:KeySize], ones[:17])
	f.Add(make([]byte, KeySize), ones[:33])
	rOne := make([]byte, KeySize)
	rOne[0] = 1
	copy(rOne[16:], ones)
	f.Add(rOne, ones[:32])
	f.Add(rOne, []byte{})
	f.Fuzz(func(t *testing.T, key, msg []byte) {
		if len(key) != KeySize || len(msg) > 2<<10 {
			t.Skip()
		}
		var got, want [TagSize]byte
		Sum(&got, msg, (*[KeySize]byte)(key))
		refSum(&want, msg, (*[KeySize]byte)(key))
		if got != want {
			t.Fatalf("len %d: Sum %x, reference %x", len(msg), got, want)
		}
	})
}

func BenchmarkSum256B(b *testing.B) {
	var key [KeySize]byte
	var tag [TagSize]byte
	msg := make([]byte, 256)
	b.SetBytes(256)
	for i := 0; i < b.N; i++ {
		Sum(&tag, msg, &key)
	}
}

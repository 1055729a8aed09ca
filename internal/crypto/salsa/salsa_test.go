package salsa

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"testing"
	"testing/quick"
)

// quarterRound computes the Salsa20 quarter-round on (y0, y1, y2, y3).
func quarterRound(y0, y1, y2, y3 uint32) (uint32, uint32, uint32, uint32) {
	y1 ^= bits.RotateLeft32(y0+y3, 7)
	y2 ^= bits.RotateLeft32(y1+y0, 9)
	y3 ^= bits.RotateLeft32(y2+y1, 13)
	y0 ^= bits.RotateLeft32(y3+y2, 18)
	return y0, y1, y2, y3
}

// Core applies the Salsa20 core (hash) function to a 64-byte input,
// producing 64 bytes of output: 20 rounds followed by addition of the
// input state, exactly as in §9 of the Salsa20 specification.
func Core(out, in *[64]byte) {
	var x, orig [16]uint32
	for i := range x {
		x[i] = binary.LittleEndian.Uint32(in[4*i:])
		orig[i] = x[i]
	}
	rounds(&x, 20)
	for i := range x {
		binary.LittleEndian.PutUint32(out[4*i:], x[i]+orig[i])
	}
}

// TestQuarterRoundZero checks the identity case from §3 of the Salsa20
// specification: quarterround(0,0,0,0) = (0,0,0,0).
func TestQuarterRoundZero(t *testing.T) {
	a, b, c, d := quarterRound(0, 0, 0, 0)
	if a != 0 || b != 0 || c != 0 || d != 0 {
		t.Fatalf("quarterRound(0,0,0,0) = (%#x,%#x,%#x,%#x), want all zero", a, b, c, d)
	}
}

// TestQuarterRoundSpec checks the worked example from §3 of the Salsa20
// specification: quarterround(0x00000001, 0, 0, 0).
func TestQuarterRoundSpec(t *testing.T) {
	a, b, c, d := quarterRound(0x00000001, 0, 0, 0)
	want := [4]uint32{0x08008145, 0x00000080, 0x00010200, 0x20500000}
	got := [4]uint32{a, b, c, d}
	if got != want {
		t.Fatalf("quarterRound(1,0,0,0) = %#x, want %#x", got, want)
	}
}

// TestCoreSpecVector checks the Salsa20 core against the example in §9 of
// the Salsa20 specification ("The Salsa20 hash function").
func TestCoreSpecVector(t *testing.T) {
	in := [64]byte{
		211, 159, 13, 115, 76, 55, 82, 183, 3, 117, 222, 37, 191, 187, 234, 136,
		49, 237, 179, 48, 1, 106, 178, 219, 175, 199, 166, 48, 86, 16, 179, 207,
		31, 240, 32, 63, 15, 83, 93, 161, 116, 147, 48, 113, 238, 55, 204, 36,
		79, 201, 235, 79, 3, 81, 156, 47, 203, 26, 244, 243, 88, 118, 104, 54,
	}
	want := [64]byte{
		109, 42, 178, 168, 156, 240, 248, 238, 168, 196, 190, 203, 26, 110, 170, 154,
		29, 29, 150, 26, 150, 30, 235, 249, 190, 163, 251, 48, 69, 144, 51, 57,
		118, 40, 152, 157, 180, 57, 27, 94, 107, 42, 236, 35, 27, 111, 114, 114,
		219, 236, 232, 135, 111, 155, 110, 18, 24, 232, 95, 158, 179, 19, 48, 202,
	}
	var out [64]byte
	Core(&out, &in)
	if out != want {
		t.Fatalf("Core spec vector mismatch:\n got %v\nwant %v", out, want)
	}
}

// TestCoreZeroFixedPoint documents the well-known all-zero fixed point of
// the raw Salsa20 hash function: the constants enter only via the expansion
// function (KeyStreamBlock), not the core, so Core(0) = 0.
func TestCoreZeroFixedPoint(t *testing.T) {
	var in, out [64]byte
	Core(&out, &in)
	if out != in {
		t.Fatal("Core(0) != 0; core unexpectedly injects constants")
	}
	// The expansion function must NOT have this property.
	var key [KeySize]byte
	var nonce [NonceSize]byte
	var ks, zero [BlockSize]byte
	KeyStreamBlock(&ks, &key, &nonce, 0)
	if ks == zero {
		t.Fatal("KeyStreamBlock(0,0,0) = 0; constants not mixed in")
	}
}

func TestKeyStreamBlockCounterChangesOutput(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	for i := range key {
		key[i] = byte(i)
	}
	var b0, b1 [BlockSize]byte
	KeyStreamBlock(&b0, &key, &nonce, 0)
	KeyStreamBlock(&b1, &key, &nonce, 1)
	if b0 == b1 {
		t.Fatal("keystream blocks 0 and 1 identical")
	}
}

func TestKeyStreamBlockNonceChangesOutput(t *testing.T) {
	var key [KeySize]byte
	var n0, n1 [NonceSize]byte
	n1[7] = 1
	var b0, b1 [BlockSize]byte
	KeyStreamBlock(&b0, &key, &n0, 0)
	KeyStreamBlock(&b1, &key, &n1, 0)
	if b0 == b1 {
		t.Fatal("keystream blocks under different nonces identical")
	}
}

// TestXORKeyStreamRoundTrip verifies that encrypting twice with the same
// parameters is the identity, across lengths spanning block boundaries.
func TestXORKeyStreamRoundTrip(t *testing.T) { paths(t, xorKeyStreamRoundTrip) }

func xorKeyStreamRoundTrip(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	for i := range key {
		key[i] = byte(3 * i)
	}
	nonce[0] = 7
	for _, n := range []int{0, 1, 63, 64, 65, 128, 257, 1000} {
		msg := make([]byte, n)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		ct := make([]byte, n)
		XORKeyStream(ct, msg, &key, &nonce, 0)
		if n > 0 && bytes.Equal(ct, msg) {
			t.Fatalf("len %d: ciphertext equals plaintext", n)
		}
		pt := make([]byte, n)
		XORKeyStream(pt, ct, &key, &nonce, 0)
		if !bytes.Equal(pt, msg) {
			t.Fatalf("len %d: roundtrip failed", n)
		}
	}
}

// TestXORKeyStreamCounterContinuity verifies that encrypting a message in
// two pieces with the correct counters equals encrypting it in one shot.
func TestXORKeyStreamCounterContinuity(t *testing.T) { paths(t, xorKeyStreamCounterContinuity) }

func xorKeyStreamCounterContinuity(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	key[0] = 0xaa
	msg := make([]byte, 256)
	for i := range msg {
		msg[i] = byte(i)
	}
	whole := make([]byte, len(msg))
	XORKeyStream(whole, msg, &key, &nonce, 0)

	split := make([]byte, len(msg))
	XORKeyStream(split[:128], msg[:128], &key, &nonce, 0)
	XORKeyStream(split[128:], msg[128:], &key, &nonce, 2) // 128 bytes = 2 blocks
	if !bytes.Equal(whole, split) {
		t.Fatal("split encryption with continued counter differs from one-shot")
	}
}

// TestXORKeyStreamInPlace verifies exact aliasing works.
func TestXORKeyStreamInPlace(t *testing.T) { paths(t, xorKeyStreamInPlace) }

func xorKeyStreamInPlace(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	msg := []byte("attack at dawn, attack at dawn, attack at dawn!!")
	buf := append([]byte(nil), msg...)
	XORKeyStream(buf, buf, &key, &nonce, 0)
	XORKeyStream(buf, buf, &key, &nonce, 0)
	if !bytes.Equal(buf, msg) {
		t.Fatal("in-place roundtrip failed")
	}
}

func TestHSalsa20Deterministic(t *testing.T) {
	var key [KeySize]byte
	var in [16]byte
	for i := range key {
		key[i] = byte(i)
	}
	var o1, o2 [32]byte
	HSalsa20(&o1, &key, &in)
	HSalsa20(&o2, &key, &in)
	if o1 != o2 {
		t.Fatal("HSalsa20 not deterministic")
	}
	in[0] = 1
	HSalsa20(&o2, &key, &in)
	if o1 == o2 {
		t.Fatal("HSalsa20 ignores input")
	}
}

// TestXSalsaRoundTrip is a property test: for arbitrary keys, nonces and
// messages, decrypt(encrypt(m)) == m, and distinct nonces yield distinct
// ciphertexts.
func TestXSalsaRoundTrip(t *testing.T) { paths(t, xsalsaRoundTrip) }

func xsalsaRoundTrip(t *testing.T) {
	f := func(key [KeySize]byte, nonce [XNonceSize]byte, msg []byte) bool {
		subKey, subNonce := DeriveX(&key, &nonce)
		ct := make([]byte, len(msg))
		XORKeyStream(ct, msg, &subKey, &subNonce, 0)
		pt := make([]byte, len(msg))
		XORKeyStream(pt, ct, &subKey, &subNonce, 0)
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDeriveXDistinctNonceHalves verifies both nonce halves affect the
// derived key material.
func TestDeriveXDistinctNonceHalves(t *testing.T) {
	var key [KeySize]byte
	var n0, n1, n2 [XNonceSize]byte
	n1[0] = 1  // first half: affects subKey
	n2[20] = 1 // second half: affects subNonce only
	k0, s0 := DeriveX(&key, &n0)
	k1, _ := DeriveX(&key, &n1)
	k2, s2 := DeriveX(&key, &n2)
	if k0 == k1 {
		t.Fatal("first nonce half does not affect subkey")
	}
	if k0 != k2 {
		t.Fatal("second nonce half unexpectedly affects subkey")
	}
	if s0 == s2 {
		t.Fatal("second nonce half does not affect subnonce")
	}
}

// BenchmarkCore is one step of KeyStream's loop: a pass of sixteen blocks
// on the kernel, one block on the scalar code.
func BenchmarkCore(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		n := BlockSize
		if AVX512 {
			n = PassSize
		}
		var ks [PassSize]byte
		var key [KeySize]byte
		var nonce [NonceSize]byte
		b.SetBytes(int64(n))
		for b.Loop() {
			KeyStream(&ks, n, &key, &nonce, 0)
		}
	})
}

func BenchmarkXSalsa20_256B(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		var key [KeySize]byte
		var nonce [XNonceSize]byte
		buf := make([]byte, 256)
		b.SetBytes(256)
		for b.Loop() {
			subKey, subNonce := DeriveX(&key, &nonce)
			XORKeyStream(buf, buf, &subKey, &subNonce, 0)
		}
	})
}

// BenchmarkXORKeyStream64KiB is a record-sized message: 64 kernel passes,
// or 1024 blocks.
func BenchmarkXORKeyStream64KiB(b *testing.B) {
	benchPaths(b, func(b *testing.B) {
		var key [KeySize]byte
		var nonce [NonceSize]byte
		buf := make([]byte, 64<<10)
		b.SetBytes(int64(len(buf)))
		for b.Loop() {
			XORKeyStream(buf, buf, &key, &nonce, 0)
		}
	})
}

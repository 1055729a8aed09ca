package box

import (
	"bytes"
	"crypto/rand"
	"testing"

	"vuvuzela/internal/crypto/poly1305"
	"vuvuzela/internal/crypto/salsa"
)

// forceScalarSalsa makes salsa run its scalar block loop until restore is
// called.
func forceScalarSalsa() (restore func()) {
	saved := salsa.AVX512
	salsa.AVX512 = false
	return func() { salsa.AVX512 = saved }
}

// salsaPaths runs f on salsa's AVX-512 kernel (on a CPU without it, an
// "avx512" row skips, naming what the CPU lacks) and again as "scalar", on
// the block loop, forced.
func salsaPaths(t *testing.T, f func(t *testing.T)) {
	if salsa.AVX512 {
		f(t)
	} else {
		t.Run("avx512", func(t *testing.T) { t.Skip("no AVX-512 kernel: " + salsa.WhyNoAVX512) })
	}
	t.Run("scalar", func(t *testing.T) {
		defer forceScalarSalsa()()
		f(t)
	})
}

// salsaBenchPaths runs f as "avx512", on salsa's kernel where the CPU has
// it, and as "scalar", on the block loop, forced.
func salsaBenchPaths(b *testing.B, f func(b *testing.B)) {
	if salsa.AVX512 {
		b.Run("avx512", f)
	}
	b.Run("scalar", func(b *testing.B) {
		defer forceScalarSalsa()()
		f(b)
	})
}

// refSeal is crypto_secretbox from salsa.KeyStreamBlock, one block at a
// time: the first 32 bytes of keystream key Poly1305 and the rest mask
// msg.
func refSeal(msg []byte, nonce *[NonceSize]byte, key *[KeySize]byte) []byte {
	subKey, subNonce := salsa.DeriveX(key, nonce)
	ks := make([]byte, 0, 32+len(msg)+salsa.BlockSize)
	var blk [salsa.BlockSize]byte
	for counter := uint64(0); len(ks) < 32+len(msg); counter++ {
		salsa.KeyStreamBlock(&blk, &subKey, &subNonce, counter)
		ks = append(ks, blk[:]...)
	}
	out := make([]byte, Overhead+len(msg))
	for i := range msg {
		out[Overhead+i] = msg[i] ^ ks[32+i]
	}
	poly1305.Sum((*[poly1305.TagSize]byte)(out), out[Overhead:], (*[poly1305.KeySize]byte)(ks))
	return out
}

// TestSealMatchesBlocks holds SealInto, and OpenInto in place, to refSeal
// at lengths around the first pass's end, where the keystream passes from
// one salsa.KeyStream call to XORKeyStream at block 16.
func TestSealMatchesBlocks(t *testing.T) {
	salsaPaths(t, func(t *testing.T) {
		var key [KeySize]byte
		var nonce [NonceSize]byte
		rand.Read(key[:])
		rand.Read(nonce[:])
		msg := make([]byte, 3000)
		rand.Read(msg)
		for _, n := range []int{0, 1, 31, 32, 33, 300, 991, 992, 993, 1024, 2015, 2016, 2017, 3000} {
			want := refSeal(msg[:n], &nonce, &key)
			got := make([]byte, Overhead+n)
			SealInto(got, msg[:n], &nonce, &key)
			if !bytes.Equal(got, want) {
				t.Fatalf("len %d: SealInto differs from the block-by-block construction", n)
			}
			if err := OpenInto(got[Overhead:], got, &nonce, &key); err != nil || !bytes.Equal(got[Overhead:], msg[:n]) {
				t.Fatalf("len %d: in-place OpenInto did not recover the message: %v", n, err)
			}
		}
	})
}

// Package salsa implements the Salsa20 stream cipher family: the Salsa20
// keystream, the HSalsa20 key-derivation function, and the XSalsa20
// stream cipher's 192-bit extended nonce (DeriveX).
//
// XSalsa20 is the cipher used by NaCl's box and secretbox constructions,
// which Vuvuzela uses for all message encryption (paper §7). The
// implementation follows Bernstein's Salsa20 specification and the NaCl
// construction of XSalsa20 exactly, so ciphertexts are interoperable with
// NaCl.
//
// On an amd64 CPU with AVX512F the keystream is computed sixteen
// consecutive blocks at a time, one per 32-bit lane of a ZMM register
// (AVX512); elsewhere one block at a time.
package salsa

import (
	"crypto/subtle"
	"encoding/binary"
	"math/bits"

	"vuvuzela/internal/crypto/cpu"
)

// KeySize is the Salsa20 key size in bytes.
const KeySize = 32

// NonceSize is the Salsa20 nonce size in bytes.
const NonceSize = 8

// XNonceSize is the XSalsa20 extended nonce size in bytes.
const XNonceSize = 24

// BlockSize is the Salsa20 keystream block size in bytes.
const BlockSize = 64

// sigma is the Salsa20 constant "expand 32-byte k" for 256-bit keys.
var sigma = [4]uint32{0x61707865, 0x3320646e, 0x79622d32, 0x6b206574}

// rounds applies the Salsa20 double-round function n/2 times to the state.
func rounds(x *[16]uint32, n int) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	x4, x5, x6, x7 := x[4], x[5], x[6], x[7]
	x8, x9, x10, x11 := x[8], x[9], x[10], x[11]
	x12, x13, x14, x15 := x[12], x[13], x[14], x[15]

	for i := 0; i < n; i += 2 {
		// Column round.
		x4 ^= bits.RotateLeft32(x0+x12, 7)
		x8 ^= bits.RotateLeft32(x4+x0, 9)
		x12 ^= bits.RotateLeft32(x8+x4, 13)
		x0 ^= bits.RotateLeft32(x12+x8, 18)

		x9 ^= bits.RotateLeft32(x5+x1, 7)
		x13 ^= bits.RotateLeft32(x9+x5, 9)
		x1 ^= bits.RotateLeft32(x13+x9, 13)
		x5 ^= bits.RotateLeft32(x1+x13, 18)

		x14 ^= bits.RotateLeft32(x10+x6, 7)
		x2 ^= bits.RotateLeft32(x14+x10, 9)
		x6 ^= bits.RotateLeft32(x2+x14, 13)
		x10 ^= bits.RotateLeft32(x6+x2, 18)

		x3 ^= bits.RotateLeft32(x15+x11, 7)
		x7 ^= bits.RotateLeft32(x3+x15, 9)
		x11 ^= bits.RotateLeft32(x7+x3, 13)
		x15 ^= bits.RotateLeft32(x11+x7, 18)

		// Row round.
		x1 ^= bits.RotateLeft32(x0+x3, 7)
		x2 ^= bits.RotateLeft32(x1+x0, 9)
		x3 ^= bits.RotateLeft32(x2+x1, 13)
		x0 ^= bits.RotateLeft32(x3+x2, 18)

		x6 ^= bits.RotateLeft32(x5+x4, 7)
		x7 ^= bits.RotateLeft32(x6+x5, 9)
		x4 ^= bits.RotateLeft32(x7+x6, 13)
		x5 ^= bits.RotateLeft32(x4+x7, 18)

		x11 ^= bits.RotateLeft32(x10+x9, 7)
		x8 ^= bits.RotateLeft32(x11+x10, 9)
		x9 ^= bits.RotateLeft32(x8+x11, 13)
		x10 ^= bits.RotateLeft32(x9+x8, 18)

		x12 ^= bits.RotateLeft32(x15+x14, 7)
		x13 ^= bits.RotateLeft32(x12+x15, 9)
		x14 ^= bits.RotateLeft32(x13+x12, 13)
		x15 ^= bits.RotateLeft32(x14+x13, 18)
	}

	x[0], x[1], x[2], x[3] = x0, x1, x2, x3
	x[4], x[5], x[6], x[7] = x4, x5, x6, x7
	x[8], x[9], x[10], x[11] = x8, x9, x10, x11
	x[12], x[13], x[14], x[15] = x12, x13, x14, x15
}

// input returns the Salsa20 input block of key and the 8 bytes of nonce
// in words 6 and 7, with words 8 and 9, the block counter, zero.
func input(key *[KeySize]byte, nonce *[NonceSize]byte) [16]uint32 {
	var x [16]uint32
	x[0], x[5], x[10], x[15] = sigma[0], sigma[1], sigma[2], sigma[3]
	for i := range 4 {
		x[1+i] = binary.LittleEndian.Uint32(key[4*i:])
		x[11+i] = binary.LittleEndian.Uint32(key[16+4*i:])
	}
	x[6] = binary.LittleEndian.Uint32(nonce[0:])
	x[7] = binary.LittleEndian.Uint32(nonce[4:])
	return x
}

// KeyStreamBlock computes the 64-byte Salsa20 keystream block for the given
// key, 8-byte nonce, and 64-bit block counter.
func KeyStreamBlock(out *[BlockSize]byte, key *[KeySize]byte, nonce *[NonceSize]byte, counter uint64) {
	x := input(key, nonce)
	x[8], x[9] = uint32(counter), uint32(counter>>32)
	orig := x
	rounds(&x, 20)
	for i := range x {
		binary.LittleEndian.PutUint32(out[4*i:], x[i]+orig[i])
	}
}

// HSalsa20 derives a 32-byte subkey from a 32-byte key and a 16-byte input,
// as used by XSalsa20 and NaCl box. Unlike the core function, HSalsa20 omits
// the final addition of the input state and outputs words 0, 5, 10, 15, 6,
// 7, 8, 9 of the final state.
func HSalsa20(out *[32]byte, key *[KeySize]byte, in *[16]byte) {
	x := input(key, (*[NonceSize]byte)(in[:8]))
	x[8] = binary.LittleEndian.Uint32(in[8:])
	x[9] = binary.LittleEndian.Uint32(in[12:])
	rounds(&x, 20)

	binary.LittleEndian.PutUint32(out[0:], x[0])
	binary.LittleEndian.PutUint32(out[4:], x[5])
	binary.LittleEndian.PutUint32(out[8:], x[10])
	binary.LittleEndian.PutUint32(out[12:], x[15])
	binary.LittleEndian.PutUint32(out[16:], x[6])
	binary.LittleEndian.PutUint32(out[20:], x[7])
	binary.LittleEndian.PutUint32(out[24:], x[8])
	binary.LittleEndian.PutUint32(out[28:], x[9])
}

// DeriveX expands an XSalsa20 (key, 24-byte nonce) pair into the Salsa20
// (subkey, 8-byte nonce) pair that generates its keystream: the subkey is
// HSalsa20(key, nonce[0:16]) and the subnonce is nonce[16:24].
func DeriveX(key *[KeySize]byte, nonce *[XNonceSize]byte) (subKey [KeySize]byte, subNonce [NonceSize]byte) {
	var hIn [16]byte
	copy(hIn[:], nonce[:16])
	HSalsa20(&subKey, key, &hIn)
	copy(subNonce[:], nonce[16:])
	return subKey, subNonce
}

// AVX512 is whether KeyStream and XORKeyStream run the AVX-512 kernel
// (salsa16_amd64.s, generated by _asm/salsa16.go), sixteen blocks a pass,
// and WhyNoAVX512, where they do not, says why: the CPUID or XCR0 bit this
// CPU lacks, or the GOARCH. Both are set once, from the CPU. Tests clear
// AVX512 to force the scalar block loop, and restore it; nothing may set
// it.
var AVX512, WhyNoAVX512 = cpu.AVX512(cpu.AVX512F)

// PassSize is the keystream one pass of the AVX-512 kernel computes:
// sixteen blocks.
const PassSize = 16 * BlockSize

// KeyStream fills at least the first n bytes of ks, n ≤ PassSize, with
// the Salsa20 keystream of key and the 8-byte nonce from the given block
// counter on: where AVX512 is set all of ks, in one kernel pass, and
// elsewhere only the blocks the n bytes cover, one at a time. Block i of
// the pass has counter+i, modulo 2^64.
func KeyStream(ks *[PassSize]byte, n int, key *[KeySize]byte, nonce *[NonceSize]byte, counter uint64) {
	if AVX512 {
		x := input(key, nonce)
		x[8], x[9] = uint32(counter), uint32(counter>>32)
		salsa16(ks, &x)
		return
	}
	for i := 0; i < n; i += BlockSize {
		KeyStreamBlock((*[BlockSize]byte)(ks[i:]), key, nonce, counter)
		counter++
	}
}

// XORKeyStream XORs src with the Salsa20 keystream generated from key and
// the 8-byte nonce, starting at the given block counter, writing the result
// to dst. dst must be at least as long as src and may alias src exactly.
// The counter increments once per 64-byte block; it is the caller's
// responsibility not to let (counter, nonce) pairs repeat under one key.
// It runs KeyStream a PassSize at a time.
func XORKeyStream(dst, src []byte, key *[KeySize]byte, nonce *[NonceSize]byte, counter uint64) {
	if len(dst) < len(src) {
		panic("salsa: dst shorter than src")
	}
	var ks [PassSize]byte
	for len(src) > 0 {
		n := min(len(src), PassSize)
		KeyStream(&ks, n, key, nonce, counter)
		subtle.XORBytes(dst, src[:n], ks[:n])
		dst, src, counter = dst[n:], src[n:], counter+PassSize/BlockSize
	}
}

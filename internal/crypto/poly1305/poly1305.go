// Package poly1305 implements the Poly1305 one-time message authentication
// code, as used by NaCl's box and secretbox constructions (paper §7).
//
// The accumulator is three 64-bit limbs, multiplied by r's two with
// bits.Mul64 and reduced modulo 2^130 − 5 after every block, in Go on
// every GOARCH; a slow reference built on math/big cross-checks it in
// tests. A Poly1305 key MUST be used to authenticate at most one message.
package poly1305

import (
	"crypto/subtle"
	"encoding/binary"
	"math/bits"
)

// KeySize is the Poly1305 one-time key size in bytes.
const KeySize = 32

// TagSize is the Poly1305 authenticator size in bytes.
const TagSize = 16

// Sum computes the Poly1305 authenticator of msg under the given one-time
// key and writes it to out. The first 16 bytes of key are the clamped
// polynomial evaluation point r; the last 16 bytes are the pad s. It runs
// in time that depends on len(msg) alone.
func Sum(out *[TagSize]byte, msg []byte, key *[KeySize]byte) {
	// Clamping clears the top four bits of both of r's limbs, so no column
	// of h·r below overflows.
	r0 := binary.LittleEndian.Uint64(key[0:]) & 0x0ffffffc0fffffff
	r1 := binary.LittleEndian.Uint64(key[8:]) & 0x0ffffffc0ffffffc

	// h = h2·2^128 + h1·2^64 + h0, h2 at most 5 between blocks.
	var h0, h1, h2 uint64
	for len(msg) > 0 {
		// Add the block, with its 2^(8·len) bit: 2^128 for a full block.
		var c uint64
		if len(msg) >= TagSize {
			h0, c = bits.Add64(h0, binary.LittleEndian.Uint64(msg[0:]), 0)
			h1, c = bits.Add64(h1, binary.LittleEndian.Uint64(msg[8:]), c)
			h2 += c + 1
			msg = msg[TagSize:]
		} else {
			var blk [TagSize]byte
			copy(blk[:], msg)
			blk[len(msg)] = 1
			h0, c = bits.Add64(h0, binary.LittleEndian.Uint64(blk[0:]), 0)
			h1, c = bits.Add64(h1, binary.LittleEndian.Uint64(blk[8:]), c)
			h2 += c
			msg = nil
		}

		// t = h·r in four limbs. h2 ≤ 7 and r's limbs are below 2^60, so
		// h2·r0 and h2·r1 fit one word and no two-word column sum carries
		// out.
		hi00, lo00 := bits.Mul64(h0, r0)
		hi10, lo10 := bits.Mul64(h1, r0)
		hi01, lo01 := bits.Mul64(h0, r1)
		hi11, lo11 := bits.Mul64(h1, r1)
		m1lo, c := bits.Add64(lo10, lo01, 0)
		m1hi := hi10 + hi01 + c
		m2lo, c := bits.Add64(lo11, h2*r0, 0)
		m2hi := hi11 + c
		t0 := lo00
		t1, c := bits.Add64(m1lo, hi00, 0)
		t2, c := bits.Add64(m2lo, m1hi, c)
		t3 := h2*r1 + m2hi + c

		// Reduce by 2^130 ≡ 5: h = t mod 2^130 plus 5·(t >> 130), added
		// as cc = 4·(t >> 130), the bits of t from 2^130 up in place,
		// and cc >> 2.
		h0, h1, h2 = t0, t1, t2&3
		cc0, cc1 := t2&^3, t3
		h0, c = bits.Add64(h0, cc0, 0)
		h1, c = bits.Add64(h1, cc1, c)
		h2 += c
		h0, c = bits.Add64(h0, cc0>>2|cc1<<62, 0)
		h1, c = bits.Add64(h1, cc1>>2, c)
		h2 += c
	}

	// h < 6·2^128 < 2p: subtract p = 2^130 − 5 once, and keep the
	// difference unless it borrows, by mask rather than by branch.
	g0, b := bits.Sub64(h0, 0xfffffffffffffffb, 0)
	g1, b := bits.Sub64(h1, 0xffffffffffffffff, b)
	_, b = bits.Sub64(h2, 3, b)
	keep := -b // all ones if h < p
	h0 = h0&keep | g0&^keep
	h1 = h1&keep | g1&^keep

	// Add the pad s mod 2^128.
	h0, c := bits.Add64(h0, binary.LittleEndian.Uint64(key[16:]), 0)
	h1, _ = bits.Add64(h1, binary.LittleEndian.Uint64(key[24:]), c)
	binary.LittleEndian.PutUint64(out[0:], h0)
	binary.LittleEndian.PutUint64(out[8:], h1)
}

// Verify reports whether tag is a valid Poly1305 authenticator for msg under
// key, in constant time with respect to the tag comparison.
func Verify(tag *[TagSize]byte, msg []byte, key *[KeySize]byte) bool {
	var expect [TagSize]byte
	Sum(&expect, msg, key)
	return subtle.ConstantTimeCompare(expect[:], tag[:]) == 1
}

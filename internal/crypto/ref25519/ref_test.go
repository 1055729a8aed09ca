// Package ref25519 is a from-scratch reference implementation of the X25519
// function from RFC 7748, built on math/big.
//
// The production code path is internal/crypto/x25519, the standard
// library's ladder and field assembly ported beside a fixed-base comb (as
// Vuvuzela's prototype relied on Go's optimized Curve25519 assembly, paper
// §7). This package exists so the repository contains a complete,
// independently-written implementation of every cryptographic primitive
// the system depends on; tests cross-check it against crypto/ecdh, the RFC
// 7748 vectors, the production ladder and box.Precompute. It is not
// constant-time and is compiled into tests only: no binary carries it.
package ref25519

import (
	"crypto/subtle"
	"errors"
	"math/big"
)

// ScalarSize is the X25519 scalar (private key) size in bytes.
const ScalarSize = 32

// PointSize is the X25519 u-coordinate (public key) size in bytes.
const PointSize = 32

var (
	// p = 2^255 - 19, the field prime.
	p = func() *big.Int {
		v := new(big.Int).Lsh(big.NewInt(1), 255)
		return v.Sub(v, big.NewInt(19))
	}()
	a24 = big.NewInt(121665)

	// ErrLowOrder indicates the resulting shared point was the identity,
	// which happens when the peer supplied a low-order public key.
	ErrLowOrder = errors.New("ref25519: low-order point")
)

// clampScalar applies the RFC 7748 scalar clamping to a copy of k.
func clampScalar(k *[ScalarSize]byte) [ScalarSize]byte {
	e := *k
	e[0] &= 248
	e[31] &= 127
	e[31] |= 64
	return e
}

// decodeLE interprets b as a little-endian integer.
func decodeLE(b []byte) *big.Int {
	rev := make([]byte, len(b))
	for i, v := range b {
		rev[len(b)-1-i] = v
	}
	return new(big.Int).SetBytes(rev)
}

// encodeLE writes v as a 32-byte little-endian integer.
func encodeLE(v *big.Int) [PointSize]byte {
	var out [PointSize]byte
	bs := v.Bytes() // big-endian
	for i := 0; i < len(bs); i++ {
		out[len(bs)-1-i] = bs[i]
	}
	return out
}

// X25519 computes the RFC 7748 X25519 function: the u-coordinate of
// [scalar]point. It returns ErrLowOrder if the output is the all-zero
// point, mirroring crypto/ecdh's contributory-behaviour check.
func X25519(scalar, point *[32]byte) ([32]byte, error) {
	e := clampScalar(scalar)
	k := decodeLE(e[:])

	// Decode u, masking the high bit per RFC 7748 §5.
	up := *point
	up[31] &= 127
	x1 := decodeLE(up[:])
	x1.Mod(x1, p)

	x2 := big.NewInt(1)
	z2 := big.NewInt(0)
	x3 := new(big.Int).Set(x1)
	z3 := big.NewInt(1)

	// Montgomery ladder over bits 254..0 of the clamped scalar.
	swap := 0
	for t := 254; t >= 0; t-- {
		kt := int(k.Bit(t))
		swap ^= kt
		if swap == 1 {
			x2, x3 = x3, x2
			z2, z3 = z3, z2
		}
		swap = kt

		a := addM(x2, z2)
		aa := mulM(a, a)
		b := subM(x2, z2)
		bb := mulM(b, b)
		e := subM(aa, bb)
		c := addM(x3, z3)
		d := subM(x3, z3)
		da := mulM(d, a)
		cb := mulM(c, b)

		t0 := addM(da, cb)
		x3 = mulM(t0, t0)
		t1 := subM(da, cb)
		t1 = mulM(t1, t1)
		z3 = mulM(x1, t1)
		x2 = mulM(aa, bb)
		t2 := mulM(a24, e)
		t2 = addM(aa, t2)
		z2 = mulM(e, t2)
	}
	if swap == 1 {
		x2, x3 = x3, x2
		z2, z3 = z3, z2
	}
	_ = x3
	_ = z3

	// Return x2 / z2 = x2 * z2^(p-2) mod p.
	zInv := new(big.Int).Exp(z2, new(big.Int).Sub(p, big.NewInt(2)), p)
	u := mulM(x2, zInv)
	out := encodeLE(u)

	var zero [32]byte
	if subtle.ConstantTimeCompare(out[:], zero[:]) == 1 {
		return out, ErrLowOrder
	}
	return out, nil
}

// BasePoint is the X25519 base point u = 9.
var BasePoint = [32]byte{9}

// ScalarBaseMult computes the public key for a private scalar.
func ScalarBaseMult(scalar *[32]byte) ([32]byte, error) {
	return X25519(scalar, &BasePoint)
}

func addM(a, b *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Add(a, b), p) }
func subM(a, b *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Sub(a, b), p) }
func mulM(a, b *big.Int) *big.Int { return new(big.Int).Mod(new(big.Int).Mul(a, b), p) }

// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package x25519 computes X25519(k, P) — RFC 7748's function, byte for
// byte what crypto/ecdh's ladder returns — for a point P known ahead of
// time, at about half the ladder's cost. A Table holds 32 × 8 affine
// multiples of P on edwards25519, and Mul adds up one entry per signed
// radix-16 digit of the clamped scalar, then maps the sum back to its
// Montgomery u: the standard library's ScalarBaseMult, applied to any
// point. The clamped scalar is below 2^255, so it is used unreduced, which
// is what keeps the result exact for a P with a small-order component.
//
// Two kinds of P are fixed in this system: the generator (BaseTable, the
// ephemeral half of every key agreement) and each downstream chain
// server's long-term key (NewTable, one per key, built once). Every
// exchange whose P is someone's fresh ephemeral key stays on crypto/ecdh.
//
// Mul is constant-time in the scalar: 64 additions and 4 doublings in
// every call, each lookup reading all 8 entries of its row and keeping one
// by masked selects, a masked negation for the digit's sign, and no load
// or branch indexed by a secret (docs/THREAT_MODEL.md §2). A Table is
// public data — multiples of a public point — and NewTable's branches
// depend only on u.
//
// The field and Edwards arithmetic are ported from the Go 1.24 standard
// library (crypto/internal/fips140/edwards25519 and its field package),
// generic Go only, trimmed to what the comb calls; the Go Authors' notice
// stays on each ported file.
package x25519

import (
	"errors"
	"sync"
)

// ErrNotOnCurve rejects a u with no point on edwards25519: a point of
// Curve25519's quadratic twist (u = −1 among them). No X25519 public key
// X25519(s, 9) is one.
var ErrNotOnCurve = errors.New("x25519: u is not a point of curve25519 (a twist point)")

// Table is the comb for one point P: row i holds 1·256^i·P … 8·256^i·P.
// It is immutable once built, so any number of goroutines may share one.
type Table struct {
	rows [32]affineLookupTable
}

// NewTable builds the table for the point whose Montgomery u-coordinate is
// u (32 bytes, little-endian; the top bit is ignored and non-canonical
// values are reduced, as in X25519). It refuses exactly the u that have no
// Edwards image, with ErrNotOnCurve.
func NewTable(u *[32]byte) (*Table, error) {
	var p point
	if !p.fromMontgomery(u) {
		return nil, ErrNotOnCurve
	}
	t := new(Table)
	t.build(&p)
	return t, nil
}

// build fills t from p: every multiple in extended coordinates first, then
// all 256 Z inverted at once (Montgomery's trick: one field inversion and
// three multiplications per entry, where one inversion per entry would cost
// five times as much).
func (t *Table) build(p *point) {
	var pts [32 * 8]point
	var q projCached
	var sum projP1xP1
	var dbl projP2
	pts[0] = *p
	for i := 0; i < 32; i++ {
		row := pts[i*8 : i*8+8]
		q.FromP3(&row[0])
		for j := 1; j < 8; j++ {
			row[j].fromP1xP1(sum.Add(&row[j-1], &q))
		}
		if i == 31 {
			break
		}
		// 256·Q = 32·(8·Q).
		dbl.FromP3(&row[7])
		for k := 0; k < 4; k++ {
			dbl.FromP1xP1(sum.Double(&dbl))
		}
		pts[(i+1)*8].fromP1xP1(sum.Double(&dbl))
	}

	// acc[k] = Z_0 · … · Z_k. No Z is zero: edwards25519's addition law is
	// complete.
	var acc [len(pts)]fieldElement
	acc[0] = pts[0].z
	for k := 1; k < len(pts); k++ {
		acc[k].Multiply(&acc[k-1], &pts[k].z)
	}
	var inv, zInv fieldElement
	inv.Invert(&acc[len(pts)-1])
	for k := len(pts) - 1; k >= 0; k-- {
		if k == 0 {
			zInv = inv
		} else {
			zInv.Multiply(&inv, &acc[k-1])
			inv.Multiply(&inv, &pts[k].z)
		}
		t.rows[k/8].points[k%8].fromP3(&pts[k], &zInv)
	}
}

var baseTable = sync.OnceValue(func() *Table {
	t, err := NewTable(&[32]byte{9})
	if err != nil {
		panic("x25519: impossible: " + err.Error())
	}
	return t
})

// BaseTable returns the table of the X25519 base point, u = 9, built on the
// first call.
func BaseTable() *Table { return baseTable() }

// Mul sets dst to X25519(scalar, P) for the table's P: the u-coordinate of
// [clamp(scalar)]P, all zeros for the identity (the output crypto/ecdh
// refuses as low order). It runs in time independent of scalar.
func (t *Table) Mul(dst, scalar *[32]byte) {
	e := *scalar
	e[0] &= 248
	e[31] &= 127
	e[31] |= 64
	digits := signedRadix16(&e)

	// Write e = sum(e_i * 16^i) so e*P = sum(P*e_i*16^i), grouping even
	// and odd coefficients:
	//
	//	e*P = e_0*16^0*P + e_2*16^2*P + ... + e_62*16^62*P
	//	 + 16*(e_1*16^0*P + e_3*16^2*P + ... + e_63*16^62*P)
	//
	// Row i of the table gives e_i*16^(2*i)*P, and four doublings multiply
	// by 16.
	var v point
	v.setIdentity()
	multiple := &affineCached{}
	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}

	// Accumulate the odd components first
	for i := 1; i < 64; i += 2 {
		t.rows[i/2].SelectInto(multiple, digits[i])
		v.fromP1xP1(tmp1.AddAffine(&v, multiple))
	}

	// Multiply by 16
	tmp2.FromP3(&v)      // tmp2 =    v in P2 coords
	tmp1.Double(tmp2)    // tmp1 =  2*v in P1xP1 coords
	tmp2.FromP1xP1(tmp1) // tmp2 =  2*v in P2 coords
	tmp1.Double(tmp2)    // tmp1 =  4*v in P1xP1 coords
	tmp2.FromP1xP1(tmp1) // tmp2 =  4*v in P2 coords
	tmp1.Double(tmp2)    // tmp1 =  8*v in P1xP1 coords
	tmp2.FromP1xP1(tmp1) // tmp2 =  8*v in P2 coords
	tmp1.Double(tmp2)    // tmp1 = 16*v in P1xP1 coords
	v.fromP1xP1(tmp1)    // now v = 16*(odd components)

	// Accumulate the even components
	for i := 0; i < 64; i += 2 {
		t.rows[i/2].SelectInto(multiple, digits[i])
		v.fromP1xP1(tmp1.AddAffine(&v, multiple))
	}

	// u = (1 + y) / (1 − y) = (Z + Y) / (Z − Y); the identity has Z = Y,
	// and inverting zero gives zero.
	var num, den fieldElement
	num.Add(&v.z, &v.y)
	den.Subtract(&v.z, &v.y)
	num.Multiply(&num, den.Invert(&den))
	num.Bytes(dst)
}

// signedRadix16 returns the signed radix-16 digits of b, a little-endian
// integer below 2^255: 64 digits in [−8, 8) except the last, in [−8, 8].
func signedRadix16(b *[32]byte) [64]int8 {
	var digits [64]int8

	// Compute unsigned radix-16 digits:
	for i := 0; i < 32; i++ {
		digits[2*i] = int8(b[i] & 15)
		digits[2*i+1] = int8((b[i] >> 4) & 15)
	}

	// Recenter coefficients:
	for i := 0; i < 63; i++ {
		carry := (digits[i] + 8) >> 4
		digits[i] -= carry << 4
		digits[i+1] += carry
	}

	return digits
}

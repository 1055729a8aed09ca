// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Ported from the Go 1.24 standard library,
// crypto/internal/fips140/edwards25519 (edwards25519.go, tables.go): the
// point representations, the additions and the doubling the comb calls,
// and the constant-time table lookup. Decompression takes a Montgomery u
// instead of an RFC 8032 encoding.

package x25519

import "crypto/subtle"

// Point types.

type projP1xP1 struct {
	X, Y, Z, T fieldElement
}

type projP2 struct {
	X, Y, Z fieldElement
}

// point is a point on the edwards25519 curve in extended coordinates
// (X, Y, Z, T) where x = X/Z, y = Y/Z, and xy = T/Z per
// https://eprint.iacr.org/2008/522.
type point struct {
	x, y, z, t fieldElement
}

type projCached struct {
	YplusX, YminusX, Z, T2d fieldElement
}

type affineCached struct {
	YplusX, YminusX, T2d fieldElement
}

// setIdentity sets v to the point at infinity, and returns v.
func (v *point) setIdentity() *point {
	*v = point{}
	v.y.One()
	v.z.One()
	return v
}

// d is a constant in the curve equation.
var d = new(fieldElement).SetBytes(&[32]byte{
	0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75,
	0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
	0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c,
	0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52})
var d2 = new(fieldElement).Add(d, d)

// fromMontgomery sets v to a point whose Montgomery u-coordinate is u
// (RFC 7748 §4.1's birational map, y = (u−1)/(u+1), then the RFC 8032
// decompression of y with either sign of x: a point and its negation share
// their u). It reports false for the u that have no image: the points of
// the quadratic twist, u = −1 among them, which the map sends to y = 0
// and which must not decompress to the order-4 point that is u = 1's.
// u is public, so so are the branches.
func (v *point) fromMontgomery(u *[32]byte) bool {
	var uu, num, den, y, y2, vv fieldElement
	uu.SetBytes(u)
	den.Add(&uu, feOne)
	if den.Equal(feZero) == 1 {
		return false
	}
	num.Subtract(&uu, feOne)
	y.Multiply(&num, den.Invert(&den))

	// -x² + y² = 1 + dx²y²
	// x² + dx²y² = x²(dy² + 1) = y² - 1
	// x² = (y² - 1) / (dy² + 1)

	// num = y² - 1
	y2.Square(&y)
	num.Subtract(&y2, feOne)

	// vv = dy² + 1
	vv.Multiply(&y2, d)
	vv.Add(&vv, feOne)

	// x = √(num/vv)
	var xx fieldElement
	if _, wasSquare := xx.SqrtRatio(&num, &vv); wasSquare == 0 {
		return false
	}
	v.x = xx
	v.y = y
	v.z.One()
	v.t.Multiply(&xx, &y) // xy = T / Z
	return true
}

// Conversions.

func (v *projP2) FromP1xP1(p *projP1xP1) *projP2 {
	v.X.Multiply(&p.X, &p.T)
	v.Y.Multiply(&p.Y, &p.Z)
	v.Z.Multiply(&p.Z, &p.T)
	return v
}

func (v *projP2) FromP3(p *point) *projP2 {
	v.X = p.x
	v.Y = p.y
	v.Z = p.z
	return v
}

func (v *point) fromP1xP1(p *projP1xP1) *point {
	v.x.Multiply(&p.X, &p.T)
	v.y.Multiply(&p.Y, &p.Z)
	v.z.Multiply(&p.Z, &p.T)
	v.t.Multiply(&p.X, &p.Y)
	return v
}

func (v *projCached) FromP3(p *point) *projCached {
	v.YplusX.Add(&p.y, &p.x)
	v.YminusX.Subtract(&p.y, &p.x)
	v.Z = p.z
	v.T2d.Multiply(&p.t, d2)
	return v
}

// fromP3 sets v to p, given zInv = 1/Z: the table's builder inverts every
// entry's Z in one batch.
func (v *affineCached) fromP3(p *point, zInv *fieldElement) *affineCached {
	v.YplusX.Add(&p.y, &p.x)
	v.YminusX.Subtract(&p.y, &p.x)
	v.T2d.Multiply(&p.t, d2)

	v.YplusX.Multiply(&v.YplusX, zInv)
	v.YminusX.Multiply(&v.YminusX, zInv)
	v.T2d.Multiply(&v.T2d, zInv)
	return v
}

// (Re)addition.

func (v *projP1xP1) Add(p *point, q *projCached) *projP1xP1 {
	var YplusX, YminusX, PP, MM, TT2d, ZZ2 fieldElement

	YplusX.Add(&p.y, &p.x)
	YminusX.Subtract(&p.y, &p.x)

	PP.Multiply(&YplusX, &q.YplusX)
	MM.Multiply(&YminusX, &q.YminusX)
	TT2d.Multiply(&p.t, &q.T2d)
	ZZ2.Multiply(&p.z, &q.Z)

	ZZ2.Add(&ZZ2, &ZZ2)

	v.X.Subtract(&PP, &MM)
	v.Y.Add(&PP, &MM)
	v.Z.Add(&ZZ2, &TT2d)
	v.T.Subtract(&ZZ2, &TT2d)
	return v
}

func (v *projP1xP1) AddAffine(p *point, q *affineCached) *projP1xP1 {
	var YplusX, YminusX, PP, MM, TT2d, Z2 fieldElement

	YplusX.Add(&p.y, &p.x)
	YminusX.Subtract(&p.y, &p.x)

	PP.Multiply(&YplusX, &q.YplusX)
	MM.Multiply(&YminusX, &q.YminusX)
	TT2d.Multiply(&p.t, &q.T2d)

	Z2.Add(&p.z, &p.z)

	v.X.Subtract(&PP, &MM)
	v.Y.Add(&PP, &MM)
	v.Z.Add(&Z2, &TT2d)
	v.T.Subtract(&Z2, &TT2d)
	return v
}

// Doubling.

func (v *projP1xP1) Double(p *projP2) *projP1xP1 {
	var XX, YY, ZZ2, XplusYsq fieldElement

	XX.Square(&p.X)
	YY.Square(&p.Y)
	ZZ2.Square(&p.Z)
	ZZ2.Add(&ZZ2, &ZZ2)
	XplusYsq.Add(&p.X, &p.Y)
	XplusYsq.Square(&XplusYsq)

	v.Y.Add(&YY, &XX)
	v.Z.Subtract(&YY, &XX)

	v.X.Subtract(&XplusYsq, &v.Y)
	v.T.Subtract(&ZZ2, &v.Z)
	return v
}

// Constant-time operations.

// Select sets v to a if cond == 1 and to b if cond == 0.
func (v *affineCached) Select(a, b *affineCached, cond int) *affineCached {
	v.YplusX.Select(&a.YplusX, &b.YplusX, cond)
	v.YminusX.Select(&a.YminusX, &b.YminusX, cond)
	v.T2d.Select(&a.T2d, &b.T2d, cond)
	return v
}

// CondNeg negates v if cond == 1 and leaves it unchanged if cond == 0:
// −(x, y) = (−x, y) swaps Y+X with Y−X and negates T, both by masked
// selects.
func (v *affineCached) CondNeg(cond int) *affineCached {
	yPlusX := v.YplusX
	v.YplusX.Select(&v.YminusX, &yPlusX, cond)
	v.YminusX.Select(&yPlusX, &v.YminusX, cond)
	v.T2d.Select(new(fieldElement).Negate(&v.T2d), &v.T2d, cond)
	return v
}

// affineLookupTable holds 1·Q … 8·Q for one Q, for a constant-time lookup
// of −8·Q … 8·Q.
type affineLookupTable struct {
	points [8]affineCached
}

// SelectInto sets dest to x*Q, where -8 <= x <= 8, in constant time: every
// entry is read, and which one is kept is decided by masks.
func (v *affineLookupTable) SelectInto(dest *affineCached, x int8) {
	// Compute xabs = |x|
	xmask := x >> 7
	xabs := uint8((x + xmask) ^ xmask)

	// dest = the identity
	dest.YplusX.One()
	dest.YminusX.One()
	dest.T2d = fieldElement{}
	for j := 1; j <= 8; j++ {
		// Set dest = j*Q if |x| = j
		cond := subtle.ConstantTimeByteEq(xabs, uint8(j))
		dest.Select(&v.points[j-1], dest, cond)
	}
	// Now dest = |x|*Q, conditionally negate to get x*Q
	dest.CondNeg(int(xmask & 1))
}

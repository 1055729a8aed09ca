// Copyright (c) 2019 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package x25519 is the one X25519 kernel: every Curve25519 scalar mult
// in this system runs here, computing RFC 7748's X25519(k, P) — byte for
// byte what crypto/ecdh returns, all zeros for the low-order results it
// refuses. It multiplies two ways, on one field.
//
// The ladder (Ladder) takes any P: the Montgomery ladder, ported from
// crypto/ecdh, for a P first seen in the exchange — the ephemeral key of an
// onion being unwrapped, of an anonymous box being opened, of a handshake.
// On an amd64 CPU with AVX-512 IFMA it runs eight ladders at once, one per
// 64-bit lane of a ZMM register (ladder8_amd64.s, emitted by
// _asm/ladder8.go): a ladder batch has one scalar, so every lane swaps on
// the same bit and the lanes never diverge.
//
// The comb (Table, MulBatch) is for a P known ahead of time, at about 0.4
// of the ladder's cost per product on either path (BenchmarkMulBatch
// against BenchmarkLadderBatch). A Table holds 32 × 8 affine multiples of
// P on edwards25519, and the comb adds up one entry per signed radix-16
// digit of the clamped scalar, then maps the sum back to its Montgomery u:
// the standard library's ScalarBaseMult, applied to any point. The clamped
// scalar is below 2^255, so it is used unreduced, which is what keeps the
// result exact for a P with a small-order component. Two kinds of P are
// fixed in this system: the generator (BaseTable, every public key) and
// each downstream chain server's long-term key (NewTable, one per key,
// built once). On the IFMA CPUs it runs eight combs at once over one table
// (comb8_amd64.s, from the same generator), each lane under its own
// scalar: MulBatch groups its products by table.
//
// Both take a batch of up to MaxBatch products and end it with one field
// inversion (Montgomery's trick): a ladder batch is one scalar against
// several points, a comb batch several (table, scalar) pairs, and a single
// product is a batch of one. A product that is the identity — a low-order
// or zero P, which a hostile client may pick as its own ephemeral key — has
// its denominator replaced by 1 and its output forced to zeros, both by
// masked selects, so it cannot change any other product of its batch.
//
// Both are constant-time in the scalar (docs/THREAT_MODEL.md §2). The
// ladder runs 255 fixed steps, swapping by masks. On the IFMA kernel every
// lane runs the same 255 steps, each swap is a mask broadcast to all lanes
// from the scalar bit, no load or branch is indexed by a secret, and
// VPMADD52LUQ/HUQ take the same time whatever their operands; which path
// runs depends only on the CPU and the public batch size. The comb does 64
// additions and 4 doublings in every call, each lookup reading all 8
// entries of its row and keeping one by masked selects, a masked negation
// for the digit's sign, and no load or branch indexed by a secret. On the
// IFMA kernel every lane runs those same steps; each step broadcasts all
// 8 entries of its row to every lane and each lane keeps its own by a
// move under the mask of a compare against its digit, and the grouping
// by table is public. A Table is public data — multiples of a public
// point — and NewTable's branches depend only on u.
//
// The field, the ladder and the Edwards arithmetic are ported from the Go
// 1.24 standard library (crypto/ecdh, crypto/internal/fips140/edwards25519
// and its field package), trimmed to what this package calls; on amd64 the
// field multiply and square are the library's own assembly (fe_amd64.s).
// The Go Authors' notice stays on each ported file.
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
// all 256 Z inverted at once.
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

	// No Z is zero: edwards25519's addition law is complete.
	var zInv, acc [len(pts)]fieldElement
	for k := range pts {
		zInv[k] = pts[k].z
	}
	invertAll(zInv[:], acc[:])
	for k := range pts {
		t.rows[k/8].points[k%8].fromP3(&pts[k], &zInv[k])
	}
}

// invertAll sets every z[k] to 1/z[k] with one field inversion and three
// multiplications per element (Montgomery's trick); acc, as long as z,
// holds the running products. No z[k] may be zero: one would zero them
// all.
func invertAll(z, acc []fieldElement) {
	// acc[k] = z_0 · … · z_k.
	acc[0] = z[0]
	for k := 1; k < len(z); k++ {
		acc[k].Multiply(&acc[k-1], &z[k])
	}
	var inv, zk fieldElement
	inv.Invert(&acc[len(z)-1])
	for k := len(z) - 1; k > 0; k-- {
		// inv = 1/(z_0 · … · z_k).
		zk = z[k]
		z[k].Multiply(&inv, &acc[k-1])
		inv.Multiply(&inv, &zk)
	}
	z[0] = inv
}

// MaxBatch is the most products one Ladder or MulBatch call takes.
const MaxBatch = 16

// divide writes num[i]/den[i] to out[i] for every i of a batch, with one
// inversion for all of them. A zero den[i] is the identity, whose X25519
// output is all zeros: its den is replaced by 1 and its output forced to
// zeros, both by masked selects, so it cannot zero the product every other
// element's inverse is recovered from, and which element it was is never
// branched on.
func divide(out []*[32]byte, num, den []fieldElement) {
	if len(den) == 0 {
		return
	}
	var zero [MaxBatch]int
	var acc [MaxBatch]fieldElement
	for i := range den {
		zero[i] = den[i].Equal(feZero)
		den[i].Select(feOne, &den[i], zero[i])
	}
	invertAll(den, acc[:len(den)])
	for i := range den {
		num[i].Multiply(&num[i], &den[i])
		num[i].Select(feZero, &num[i], zero[i])
		num[i].Bytes(out[i])
	}
}

// clamp returns RFC 7748's clamped copy of scalar.
func clamp(scalar *[32]byte) [32]byte {
	e := *scalar
	e[0] &= 248
	e[31] &= 127
	e[31] |= 64
	return e
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

// Mul sets dst to X25519(scalar, P) for the table's P: a batch of one.
func (t *Table) Mul(dst, scalar *[32]byte) {
	MulBatch([]*[32]byte{dst}, []*Table{t}, []*[32]byte{scalar})
}

// MulBatch sets out[i] to X25519(*scalars[i], P) for the P of tables[i],
// for every i, up to MaxBatch pairs: the u-coordinate of
// [clamp(scalar)]P, all zeros for the identity (the output crypto/ecdh
// refuses as low order). Every output is written after every input is
// read, so out may alias scalars. It runs in time independent of the
// scalars.
//
// Where IFMA is set it groups the products by table, which is public,
// and runs each group 8 at a time on the comb's IFMA kernel, a last
// partial group padded: even a group of one costs less padded than on the
// scalar comb (BenchmarkCombLanes). Elsewhere it runs the products one by
// one.
func MulBatch(out []*[32]byte, tables []*Table, scalars []*[32]byte) {
	var num, den [MaxBatch]fieldElement
	var grouped [MaxBatch]bool
	for i, t := range tables {
		switch {
		case !IFMA:
			t.mul(&num[i], &den[i], scalars[i])
		case !grouped[i]:
			// t's products from i on, 8 lanes at a time.
			var lanes [8]int
			g := 0
			for j := i; j < len(tables); j++ {
				if tables[j] != t {
					continue
				}
				grouped[j], lanes[g] = true, j
				if g++; g == len(lanes) {
					t.mulLanes(num[:], den[:], lanes[:], scalars)
					g = 0
				}
			}
			if g > 0 {
				t.mulLanes(num[:], den[:], lanes[:g], scalars)
			}
		}
	}
	divide(out, num[:len(tables)], den[:len(tables)])
}

// mul sets num/den to the u-coordinate of [clamp(scalar)]P.
func (t *Table) mul(num, den *fieldElement, scalar *[32]byte) {
	e := clamp(scalar)
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

	// u = (1 + y) / (1 − y) = (Z + Y) / (Z − Y); the identity has Z = Y.
	num.Add(&v.z, &v.y)
	den.Subtract(&v.z, &v.y)
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

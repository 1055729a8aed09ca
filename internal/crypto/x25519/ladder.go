// Copyright 2022 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Ported from the Go 1.24 standard library, crypto/ecdh (x25519.go).

package x25519

import "vuvuzela/internal/crypto/cpu"

// Ladder sets out[i] to X25519(scalar, *points[i]) for every i, up to
// MaxBatch points: all zeros where the result is the identity (a low-order
// or zero point). Every output is written after every input is read, so
// out may alias points or scalar. It runs in time independent of scalar
// and of which points are low-order.
//
// Where IFMA is set it runs the points in groups of 8, one ladder per lane
// of the AVX-512 IFMA kernel, a last partial group padded, except that a
// group of one runs the scalar ladder, which is faster than a padded group
// (BenchmarkLadderLanes against BenchmarkLadder). Elsewhere it runs the
// points one by one.
func Ladder(out []*[32]byte, scalar *[32]byte, points []*[32]byte) {
	e := clamp(scalar)
	var x, z [MaxBatch]fieldElement
	n := len(points)
	for i := 0; i < n; {
		if IFMA && n-i > 1 {
			ladderLanes(x[i:], z[i:], &e, points[i:min(i+8, n)])
			i += 8
		} else {
			ladder(&x[i], &z[i], &e, points[i])
			i++
		}
	}
	divide(out, x[:n], z[:n])
}

// IFMA is whether Ladder and MulBatch run their 8-lane AVX-512 IFMA
// kernels (ladder8_amd64.s, comb8_amd64.s), and WhyNoIFMA, where they do
// not, says why: the CPUID or XCR0 bit this CPU lacks, or the GOARCH. Both
// are set once, from the CPU. Tests clear IFMA to force the scalar code,
// and restore it; nothing may set it.
var IFMA, WhyNoIFMA = cpu.AVX512(cpu.AVX512F, cpu.AVX512IFMA)

// ladder sets x/z, in projective coordinates, to the u of [e]P for the
// clamped scalar e and the point whose u-coordinate is u: crypto/ecdh's
// x25519ScalarMult without its final inversion.
func ladder(xOut, zOut *fieldElement, e, u *[32]byte) {
	var x1, x2, z2, x3, z3, tmp0, tmp1 fieldElement
	x1.SetBytes(u)
	x2.One()
	x3 = x1
	z3.One()

	swap := 0
	for pos := 254; pos >= 0; pos-- {
		b := e[pos/8] >> uint(pos&7)
		b &= 1
		swap ^= int(b)
		x2.Swap(&x3, swap)
		z2.Swap(&z3, swap)
		swap = int(b)

		tmp0.Subtract(&x3, &z3)
		tmp1.Subtract(&x2, &z2)
		x2.Add(&x2, &z2)
		z2.Add(&x3, &z3)
		z3.Multiply(&tmp0, &x2)
		z2.Multiply(&z2, &tmp1)
		tmp0.Square(&tmp1)
		tmp1.Square(&x2)
		x3.Add(&z3, &z2)
		z2.Subtract(&z3, &z2)
		x2.Multiply(&tmp1, &tmp0)
		tmp1.Subtract(&tmp1, &tmp0)
		z2.Square(&z2)

		z3.Mult32(&tmp1, 121666)
		x3.Square(&x3)
		tmp0.Add(&tmp0, &z3)
		z3.Multiply(&x1, &z2)
		z2.Multiply(&tmp1, &tmp0)
	}

	x2.Swap(&x3, swap)
	z2.Swap(&z3, swap)
	*xOut, *zOut = x2, z2
}

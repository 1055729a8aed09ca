//go:build ignore

// ladder8 emits ladder8_amd64.s: eight X25519 Montgomery ladders under one
// scalar, one per 64-bit lane of a ZMM register, on AVX-512 IFMA. Run it
// from internal/crypto/x25519:
//
//	go run ./_asm/ladder8.go > ladder8_amd64.s
//
// TestLadder8Generated reruns it and compares the output with the file.
//
// A field element of eight lanes is five ZMM registers, limb-major, in
// radix 2^51 like fieldElement. VPMADD52LUQ/VPMADD52HUQ add the low and
// the high 52 bits of a 52×52-bit product, so every limb a multiply reads
// must stay below 2^52. The high half of a_i·b_j lands one column up and
// doubled (2^52 = 2·2^51); columns 5–9 fold back ×19 (2^255 ≡ 19). After
// every add, subtract, multiply and ×121666, one parallel carry round
// brings each limb below 2^51 + 2^15.
//
// Bounds, for inputs below 2^51 + 2^15: a product's low half is below
// 2^52 and its high half below 2^50 + 2^17, so a column of at most five
// products is below 5·2^52 + 2·5·(2^50 + 2^17) < 2^55, a folded column
// below 2^55 + 19·2^55 < 2^60, and its carry below 2^9, 19·2^9 < 2^14 at
// limb 0. A sum is below 2^53 before its carry, which adds at most 3·19.
package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
)

var w = bufio.NewWriter(os.Stdout)

// op emits one instruction, operands in Go assembler order (sources
// first, destination last).
func op(ins string, args ...string) { fmt.Fprintf(w, "\t%s %s\n", ins, strings.Join(args, ", ")) }

func comment(format string, args ...any) { fmt.Fprintf(w, "\n\t// "+format+"\n", args...) }

// fe8 is the offset of one element of the ladder's state, ladder8State in
// ladder8_amd64.go, at DI: seven elements of five 64-byte limbs, then the
// clamped scalar.
type fe8 int

const (
	x1 fe8 = iota * 320
	x2
	z2
	x3
	z3
	t0
	t1
	scalarOffset = 7 * 320
)

func (e fe8) String() string { return [...]string{"x1", "x2", "z2", "x3", "z3", "t0", "t1"}[e/320] }

func (e fe8) limb(i int) string { return fmt.Sprintf("%d(DI)", int(e)+64*i) }

// Constants, broadcast once: Z26–Z31 are never allocated.
const (
	mask51   = "Z26" // 2^51 − 1
	k19      = "Z27" // 19
	twoP0    = "Z28" // limb 0 of 2p
	twoP     = "Z29" // limbs 1–4 of 2p
	k121666  = "Z30" // (A + 2) / 4
	swapMask = "Z31" // all ones in every lane to swap, else zero
)

// regs returns n consecutive registers from Zfirst.
func regs(first, n int) []string {
	r := make([]string, n)
	for i := range r {
		r[i] = fmt.Sprintf("Z%d", first+i)
	}
	return r
}

func load(r []string, e fe8) {
	for i := range 5 {
		op("VMOVDQU64", e.limb(i), r[i])
	}
}

func store(e fe8, r []string) {
	for i := range 5 {
		op("VMOVDQU64", r[i], e.limb(i))
	}
}

// twice emits dst += 2·src and returns dst; with no dst (""), src += src
// and returns src; with no src, it returns dst.
func twice(dst, src string) string {
	switch {
	case src == "":
		return dst
	case dst == "":
		op("VPADDQ", src, src, src)
		return src
	}
	op("VPADDQ", src, dst, dst)
	op("VPADDQ", src, dst, dst)
	return dst
}

// carry is one parallel carry round over the limbs r, with t five free
// registers: every limb keeps its low 51 bits and passes the rest up, limb
// 4's ×19 into limb 0.
func carry(r, t []string) {
	for i := range 5 {
		op("VPSRLQ", "$51", r[i], t[i])
	}
	for i := range 5 {
		op("VPANDQ", mask51, r[i], r[i])
	}
	for i := range 4 {
		op("VPADDQ", t[i], r[i+1], r[i+1])
	}
	op("VPMADD52LUQ", k19, t[4], r[0])
}

// reduce folds the ten columns c (each below 2^55) into c[0:5] as
// x + 2x + 16x = 19x, carries them, reusing c[5:] as scratch, and stores
// the result at dst.
func reduce(dst fe8, c []string) {
	for k := 5; k < 10; k++ {
		lo, x := c[k-5], c[k]
		op("VPADDQ", x, lo, lo)
		op("VPADDQ", x, x, x)
		op("VPADDQ", x, lo, lo)
		op("VPSLLQ", "$3", x, x)
		op("VPADDQ", x, lo, lo)
	}
	carry(c[:5], c[5:])
	store(dst, c[:5])
}

// accumulators hands out zeroed registers from Zfirst, one per column
// that is added to.
type accumulators struct {
	next int
	col  [3][10]string
}

func (a *accumulators) at(set, k int) string {
	if a.col[set][k] == "" {
		a.col[set][k] = fmt.Sprintf("Z%d", a.next)
		a.next++
		op("VPXORQ", a.col[set][k], a.col[set][k], a.col[set][k])
	}
	return a.col[set][k]
}

// mul sets dst = a·b: 25 products, 50 IFMA. Column k is L[k] + 2·H[k].
func mul(dst, a, b fe8) {
	comment("%v = %v × %v", dst, a, b)
	const L, H = 0, 1
	A, bj := regs(0, 5), "Z5"
	acc := accumulators{next: 6}
	load(A, a)
	for j := range 5 {
		op("VMOVDQU64", b.limb(j), bj)
		for i := range 5 {
			op("VPMADD52LUQ", bj, A[i], acc.at(L, i+j))
			op("VPMADD52HUQ", bj, A[i], acc.at(H, i+j+1))
		}
	}
	c := make([]string, 10)
	for k := range c {
		c[k] = twice(acc.col[L][k], acc.col[H][k])
	}
	reduce(dst, c)
}

// sqr sets dst = a²: 15 products, 30 IFMA. A diagonal a_i² adds its low
// half to D[2i] and its high half to X[2i+1]; an off-diagonal a_i·a_j,
// i < j, counts twice, so its low half goes to X[i+j] and its high half to
// Y[i+j+1]. Column k is D[k] + 2·(X[k] + 2·Y[k]).
func sqr(dst, a fe8) {
	comment("%v = %v²", dst, a)
	const D, X, Y = 0, 1, 2
	A := regs(0, 5)
	acc := accumulators{next: 5}
	load(A, a)
	for i := range 5 {
		for j := i; j < 5; j++ {
			if i == j {
				op("VPMADD52LUQ", A[i], A[i], acc.at(D, 2*i))
				op("VPMADD52HUQ", A[i], A[i], acc.at(X, 2*i+1))
			} else {
				op("VPMADD52LUQ", A[j], A[i], acc.at(X, i+j))
				op("VPMADD52HUQ", A[j], A[i], acc.at(Y, i+j+1))
			}
		}
	}
	c := make([]string, 10)
	for k := range c {
		c[k] = twice(acc.col[D][k], twice(acc.col[X][k], acc.col[Y][k]))
	}
	reduce(dst, c)
}

// sub emits d = a − b + 2p for limb i; add emits d = a + b.
func sub(i int, d, a, b string) {
	if i == 0 {
		op("VPADDQ", twoP0, a, d)
	} else {
		op("VPADDQ", twoP, a, d)
	}
	op("VPSUBQ", b, d, d)
}

func add(d, a, b string) { op("VPADDQ", b, a, d) }

// swap swaps p and q where swapMask is set, with t free.
func swap(p, q, t string) {
	op("VPXORQ", q, p, t)
	op("VPANDQ", swapMask, t, t)
	op("VPXORQ", t, p, p)
	op("VPXORQ", t, q, q)
}

// stepHead is the ladder step's conditional swap, fused with its first
// four sums: t0 = x3 − z3, t1 = x2 − z2, x2 = x2 + z2, z2 = x3 + z3, on the
// swapped values (which nothing else reads).
func stepHead() {
	comment("swap (x2, z2) with (x3, z3) by mask; t0 = x3 − z3, t1 = x2 − z2, x2 = x2 + z2, z2 = x3 + z3")
	out := [4][]string{regs(0, 5), regs(5, 5), regs(10, 5), regs(15, 5)}
	tmp := regs(20, 5)
	P, Q, R, S, T := tmp[0], tmp[1], tmp[2], tmp[3], tmp[4]
	for i := range 5 {
		op("VMOVDQU64", x2.limb(i), P)
		op("VMOVDQU64", x3.limb(i), Q)
		op("VMOVDQU64", z2.limb(i), R)
		op("VMOVDQU64", z3.limb(i), S)
		swap(P, Q, T)
		swap(R, S, T)
		sub(i, out[0][i], Q, S)
		sub(i, out[1][i], P, R)
		add(out[2][i], P, R)
		add(out[3][i], Q, S)
	}
	for k, dst := range []fe8{t0, t1, x2, z2} {
		carry(out[k], tmp)
		store(dst, out[k])
	}
}

// sumDiff sets s = a + b and d = a − b.
func sumDiff(s, d, a, b fe8) {
	comment("%v = %v + %v, %v = %v − %v", s, a, b, d, a, b)
	A, B, S, D, tmp := regs(0, 5), regs(5, 5), regs(10, 5), regs(15, 5), regs(20, 5)
	load(A, a)
	load(B, b)
	for i := range 5 {
		add(S[i], A[i], B[i])
		sub(i, D[i], A[i], B[i])
	}
	carry(S, tmp)
	store(s, S)
	carry(D, tmp)
	store(d, D)
}

// subMulAdd sets t1 = t1 − t0, then t0 = t0 + 121666·t1. The ×121666 is
// one IFMA pair per limb: its low half adds in place, its high half (below
// 2^17) one limb up and doubled, limb 4's ×19 into limb 0.
func subMulAdd() {
	comment("t1 = t1 − t0; t0 = t0 + 121666·t1")
	A, B, Dif, H, tmp := regs(0, 5), regs(5, 5), regs(10, 5), regs(15, 5), regs(20, 5)
	load(A, t1)
	load(B, t0)
	for i := range 5 {
		sub(i, Dif[i], A[i], B[i])
	}
	carry(Dif, tmp)
	store(t1, Dif)
	for i := range 5 {
		op("VPXORQ", H[i], H[i], H[i])
	}
	for i := range 5 {
		op("VPMADD52LUQ", k121666, Dif[i], B[i])
		op("VPMADD52HUQ", k121666, Dif[i], H[(i+1)%5])
	}
	for i := 1; i < 5; i++ {
		twice(B[i], H[i])
	}
	op("VPADDQ", H[0], H[0], H[0])
	op("VPMADD52LUQ", k19, H[0], B[0])
	carry(B, tmp)
	store(t0, B)
}

func main() {
	fmt.Fprint(w, `// Code generated by go run ./_asm/ladder8.go. DO NOT EDIT.

#include "textflag.h"

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func ladder8(s *ladder8State)
TEXT ·ladder8(SB), NOSPLIT, $0-8
	MOVQ s+0(FP), DI
`)
	for _, c := range []struct {
		reg string
		v   uint64
	}{{mask51, 1<<51 - 1}, {k19, 19}, {twoP0, 1<<52 - 38}, {twoP, 1<<52 - 2}, {k121666, 121666}} {
		op("MOVQ", fmt.Sprintf("$0x%x", c.v), "AX")
		op("VPBROADCASTQ", "AX", c.reg)
	}

	comment("R8 is the bit position, 254 down to 0; R9 the previous bit.")
	op("MOVQ", "$254", "R8")
	op("XORQ", "R9", "R9")
	fmt.Fprint(w, "\nstep:\n")
	comment("swap = previous bit ⊕ this bit, broadcast as a mask; the index is public")
	op("MOVQ", "R8", "AX")
	op("SHRQ", "$3", "AX")
	op("MOVBLZX", fmt.Sprintf("%d(DI)(AX*1)", scalarOffset), "BX")
	op("MOVQ", "R8", "CX")
	op("ANDQ", "$7", "CX")
	op("SHRL", "CX", "BX")
	op("ANDL", "$1", "BX")
	op("XORQ", "BX", "R9")
	op("NEGQ", "R9")
	op("VPBROADCASTQ", "R9", swapMask)
	op("MOVQ", "BX", "R9")

	stepHead()
	mul(z3, t0, x2)
	mul(z2, z2, t1)
	sqr(t0, t1)
	sqr(t1, x2)
	sumDiff(x3, z2, z3, z2)
	mul(x2, t1, t0)
	subMulAdd()
	sqr(z2, z2)
	sqr(x3, x3)
	mul(z3, x1, z2)
	mul(z2, t1, t0)

	fmt.Fprint(w, "\n")
	op("DECQ", "R8")
	op("JGE", "step")

	comment("the last swap, by the last bit; only x2 and z2 are read")
	op("NEGQ", "R9")
	op("VPBROADCASTQ", "R9", swapMask)
	for i := range 5 {
		for _, pq := range [][2]fe8{{x2, x3}, {z2, z3}} {
			op("VMOVDQU64", pq[0].limb(i), "Z0")
			op("VMOVDQU64", pq[1].limb(i), "Z1")
			swap("Z0", "Z1", "Z2")
			op("VMOVDQU64", "Z0", pq[0].limb(i))
		}
	}
	op("VZEROUPPER")
	op("RET")
	w.Flush()
}

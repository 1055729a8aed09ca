//go:build ignore

// ladder8 emits the AVX-512 IFMA kernels, eight X25519 scalar mults at
// once, one per 64-bit lane of a ZMM register: ladder8_amd64.s, eight
// Montgomery ladders under one scalar, and comb8_amd64.s, eight combs over
// one table, a scalar per lane. Run it from internal/crypto/x25519, once
// per kernel:
//
//	go run ./_asm/ladder8.go ladder8 > ladder8_amd64.s
//	go run ./_asm/ladder8.go comb8 > comb8_amd64.s
//
// TestLadder8Generated reruns it and compares the output with the files.
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
// limb 0. A sum is below 2^53 before its carry, which adds at most 3·19;
// the comb's 2a ± b below 2^54, which adds at most 7·19.
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

// fe8 is one element of a kernel's state at DI: its name and offset,
// five 64-byte limbs.
type fe8 struct {
	name string
	off  int
}

// el is the element named name, the i'th of its state.
func el(name string, i int) fe8 { return fe8{name, i * 320} }

func (e fe8) String() string { return e.name }

func (e fe8) limb(i int) string { return fmt.Sprintf("%d(DI)", e.off+64*i) }

// The ladder's state, ladder8State in ladder8_amd64.go: seven elements,
// then the clamped scalar.
var x1, x2, z2, x3, z3, t0, t1 = el("x1", 0), el("x2", 1), el("z2", 2), el("x3", 3), el("z3", 4), el("t0", 5), el("t1", 6)

const scalarOffset = 7 * 320

// The comb's state, comb8State in comb8_amd64.go: the sum v in extended
// coordinates, the entry q added to it, temporaries, then the digits.
var (
	vx, vy, vz, vt = el("x", 0), el("y", 1), el("z", 2), el("t", 3)
	qp, qm, qt     = el("q.YplusX", 4), el("q.YminusX", 5), el("q.T2d", 6)
	ta, tb         = el("a", 7), el("b", 8)
	pp, mm, tt     = el("PP", 9), el("MM", 10), el("TT", 11)
	px, py, pz, pt = el("X", 12), el("Y", 13), el("Z", 14), el("T", 15)
)

const digitsOffset = 16 * 320

// Constants, broadcast once: Z26–Z31 are never allocated. The comb holds
// other values in Z30 and Z31 (ones, zero).
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
func sumDiff(s, d, a, b fe8) { linear(s, d, a, b, 1) }

// linear sets s = k·a + b and d = k·a − b, for k = 1 or 2.
func linear(s, d, a, b fe8, k int) {
	k2 := map[int]string{1: "", 2: "2·"}[k]
	comment("%v = %s%v + %v, %v = %s%v − %v", s, k2, a, b, d, k2, a, b)
	A, B, S, D, tmp := regs(0, 5), regs(5, 5), regs(10, 5), regs(15, 5), regs(20, 5)
	load(A, a)
	load(B, b)
	for i := range 5 {
		if k == 2 {
			op("VPADDQ", A[i], A[i], A[i])
		}
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
	kernels := map[string]func(){"ladder8": ladder8, "comb8": comb8}
	if len(os.Args) != 2 || kernels[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: go run ./_asm/ladder8.go ladder8|comb8")
		os.Exit(2)
	}
	fmt.Fprintf(w, "// Code generated by go run ./_asm/ladder8.go %s. DO NOT EDIT.\n\n#include \"textflag.h\"\n", os.Args[1])
	kernels[os.Args[1]]()
	w.Flush()
}

// constants broadcasts the field's constants, and z30 to Z30.
func constants(z30 uint64) {
	for _, c := range []struct {
		reg string
		v   uint64
	}{{mask51, 1<<51 - 1}, {k19, 19}, {twoP0, 1<<52 - 38}, {twoP, 1<<52 - 2}, {k121666, z30}} {
		op("MOVQ", fmt.Sprintf("$0x%x", c.v), "AX")
		op("VPBROADCASTQ", "AX", c.reg)
	}
}

func ladder8() {
	fmt.Fprint(w, `
// func ladder8(s *ladder8State)
TEXT ·ladder8(SB), NOSPLIT, $0-8
	MOVQ s+0(FP), DI
`)
	constants(121666)

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
}

// The comb's registers besides the field's constants: Z30 holds 1 in
// every lane, Z31 0.
const (
	ones = "Z30"
	zero = "Z31"
)

// rowSize is one row of a Table: 8 entries of three elements of five
// 8-byte limbs (Table in x25519.go).
const rowSize = 8 * 3 * 5 * 8

// selectEntry sets q, in each lane, to the entry of the row at R10 that
// the lane's digit of step R8 names: the identity for 0, |d|·Q negated for
// d < 0. Every entry is broadcast to every lane by an unmasked load, and
// each lane keeps its own by a register move under the mask of a compare
// against its |d|; the sign is a masked swap and negation. No load,
// branch or address depends on a digit.
func selectEntry() {
	comment("q = the row's entry for each lane's digit: all 8 broadcast, each kept by a compare mask; then negated where the digit is")
	q, d, abs, j, tmp := regs(0, 15), "Z15", "Z16", "Z17", "Z18"
	op("VPMOVSXBQ", fmt.Sprintf("%d(DI)(R8*8)", digitsOffset), d)
	op("VPABSQ", d, abs)
	op("VPCMPGTQ", d, zero, "K2")
	for k, r := range q {
		if k%5 == 0 && k < 10 {
			op("VMOVDQA64", ones, r)
		} else {
			op("VPXORQ", r, r, r)
		}
	}
	op("VPXORQ", j, j, j)
	for e := range 8 {
		op("VPADDQ", ones, j, j)
		op("VPCMPEQQ", j, abs, "K1")
		for k, r := range q {
			op("VPBROADCASTQ", fmt.Sprintf("%d(R10)", e*rowSize/8+k*8), tmp)
			op("VMOVDQA64", tmp, "K1", r)
		}
	}
	for i := range 5 {
		p, m, t := q[i], q[5+i], q[10+i]
		op("VMOVDQA64", p, tmp)
		op("VMOVDQA64", m, "K2", p)
		op("VMOVDQA64", tmp, "K2", m)
		if i == 0 {
			op("VPSUBQ", t, twoP0, tmp)
		} else {
			op("VPSUBQ", t, twoP, tmp)
		}
		op("VMOVDQA64", tmp, "K2", t)
	}
	carry(q[10:], regs(15, 5))
	store(qp, q[:5])
	store(qm, q[5:10])
	store(qt, q[10:])
}

// addAffine sets v = v + q (projP1xP1.AddAffine, then point.fromP1xP1).
func addAffine() {
	sumDiff(ta, tb, vy, vx)
	mul(pp, ta, qp)
	mul(mm, tb, qm)
	mul(tt, vt, qt)
	sumDiff(py, px, pp, mm)
	linear(pz, pt, vz, tt, 2)
	fromP1xP1()
}

// double sets v = 2·v (projP1xP1.Double, then point.fromP1xP1); b takes
// the sums and differences nothing reads.
func double() {
	sqr(pp, vx)
	sqr(mm, vy)
	sqr(tt, vz)
	sumDiff(ta, tb, vx, vy)
	sqr(ta, ta)
	sumDiff(py, pz, mm, pp)
	sumDiff(tb, px, ta, py)
	linear(tb, pt, tt, pz, 2)
	fromP1xP1()
}

func fromP1xP1() {
	mul(vx, px, pt)
	mul(vy, py, pz)
	mul(vz, pz, pt)
	mul(vt, px, py)
}

// comb8 emits the comb of Table.mul for 8 lanes over one table: 64 steps,
// each adding one row's entry, the odd digits' 32 first, then v = 16·v
// between them, all lanes in lockstep.
func comb8() {
	fmt.Fprint(w, `
// func comb8(s *comb8State, t *Table)
TEXT ·comb8(SB), NOSPLIT, $0-16
	MOVQ s+0(FP), DI
	MOVQ t+8(FP), SI
`)
	constants(1)
	op("VPXORQ", zero, zero, zero)

	comment("R8 is the step, 0 to 63, whose digits are at 8·R8 in the state; R10 the row, from SI; both are public.")
	op("XORQ", "R8", "R8")
	op("MOVQ", "SI", "R10")
	fmt.Fprint(w, "\nstep:\n")
	op("CMPQ", "R8", "$32")
	op("JNE", "add")
	comment("after the odd digits' 32 steps, v = 16·v, and the rows start over")
	op("MOVQ", "SI", "R10")
	op("MOVQ", "$4", "R9")
	fmt.Fprint(w, "\ndouble:\n")
	double()
	fmt.Fprint(w, "\n")
	op("DECQ", "R9")
	op("JNZ", "double")
	fmt.Fprint(w, "\nadd:\n")
	selectEntry()
	addAffine()
	fmt.Fprint(w, "\n")
	op("ADDQ", fmt.Sprintf("$%d", rowSize), "R10")
	op("INCQ", "R8")
	op("CMPQ", "R8", "$64")
	op("JLT", "step")
	op("VZEROUPPER")
	op("RET")
}

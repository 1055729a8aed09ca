//go:build ignore

// salsa16 emits salsa16_amd64.s, the AVX-512 Salsa20 kernel: sixteen
// consecutive keystream blocks of one key and nonce per call, one block
// per 32-bit lane of a ZMM register. Run it from internal/crypto/salsa:
//
//	go run ./_asm/salsa16.go > salsa16_amd64.s
//
// TestSalsa16Generated reruns it and compares the output with the file.
//
// Word j of the sixteen blocks' state is register Zj, lane i holding
// block i's word: every word is the input's, broadcast, but for the
// counter words 8 and 9, which lane i sets to counter+i, the carry out of
// word 8 added into word 9. The twenty rounds run on Z0–Z15 with VPADDD,
// VPROLD and VPXORD alone, each step the same in the four quarter-rounds
// it updates at once; the input is then added back, and a 16×16 transpose
// of 32-bit words turns lanes into blocks for the stores.
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

// z names register Zi.
func z(i int) string { return fmt.Sprintf("Z%d", i) }

// The registers besides the state's Z0–Z15: the lanes' counter words,
// kept for the final addition, and four temporaries.
const (
	ctrLo = "Z16"
	ctrHi = "Z17"
)

var tmp = [4]string{"Z18", "Z19", "Z20", "Z21"}

// quarterRounds emits one round: the four quarter-rounds qs, each the
// state words (y0, y1, y2, y3) it updates, step by step. Step s sets
// y[s+1] ^= (y[s] + y[s+3]) <<< rot[s], indices mod 4, as the Salsa20
// specification's quarterround does.
func quarterRounds(qs [4][4]int) {
	for s, rot := range []int{7, 9, 13, 18} {
		for k, q := range qs {
			op("VPADDD", z(q[(s+3)%4]), z(q[s]), tmp[k])
		}
		for k := range qs {
			op("VPROLD", fmt.Sprintf("$%d", rot), tmp[k], tmp[k])
		}
		for k, q := range qs {
			op("VPXORD", tmp[k], z(q[(s+1)%4]), z(q[(s+1)%4]))
		}
	}
}

func main() {
	fmt.Fprint(w, `// Code generated by go run ./_asm/salsa16.go. DO NOT EDIT.

#include "textflag.h"

// The lane indices, added to the broadcast counter.
`)
	for i := range 16 {
		fmt.Fprintf(w, "DATA lanes<>+%d(SB)/4, $%d\n", 4*i, i)
	}
	fmt.Fprint(w, `GLOBL lanes<>(SB), RODATA|NOPTR, $64

// func salsa16(out *[1024]byte, in *[16]uint32)
TEXT ·salsa16(SB), NOSPLIT, $0-16
	MOVQ out+0(FP), DI
	MOVQ in+8(FP), SI
`)
	comment("Broadcast the input; lane i's counter is counter+i, a wrap of word 8 carried into word 9.")
	for j := range 16 {
		op("VPBROADCASTD", fmt.Sprintf("%d(SI)", 4*j), z(j))
	}
	op("VPADDD", "lanes<>(SB)", "Z8", ctrLo)
	op("VPCMPUD", "$1", "Z8", ctrLo, "K1")
	op("VPTERNLOGD", "$0xff", tmp[0], tmp[0], tmp[0])
	op("VPSUBD", tmp[0], "Z9", "K1", "Z9")
	op("VMOVDQA32", ctrLo, "Z8")
	op("VMOVDQA32", "Z9", ctrHi)

	comment("Ten double rounds: a column round, then a row round.")
	op("MOVQ", "$10", "CX")
	fmt.Fprint(w, "\ndoubleround:\n")
	quarterRounds([4][4]int{{0, 4, 8, 12}, {5, 9, 13, 1}, {10, 14, 2, 6}, {15, 3, 7, 11}})
	quarterRounds([4][4]int{{0, 1, 2, 3}, {5, 6, 7, 4}, {10, 11, 8, 9}, {15, 12, 13, 14}})
	op("DECQ", "CX")
	op("JNZ", "doubleround")

	comment("Add the input back.")
	for j := range 16 {
		switch j {
		case 8:
			op("VPADDD", ctrLo, z(j), z(j))
		case 9:
			op("VPADDD", ctrHi, z(j), z(j))
		default:
			op("VPBROADCASTD", fmt.Sprintf("%d(SI)", 4*j), tmp[0])
			op("VPADDD", tmp[0], z(j), z(j))
		}
	}

	// Words 4g..4g+3 become, in their registers' order m = 0..3, lane
	// quarter L of register 4g+m holding those four words of block 4L+m.
	comment("Transpose each group of four words within 128-bit quarters.")
	for g := range 4 {
		a, b, c, d := z(4*g), z(4*g+1), z(4*g+2), z(4*g+3)
		op("VPUNPCKLDQ", b, a, tmp[0])
		op("VPUNPCKHDQ", b, a, tmp[1])
		op("VPUNPCKLDQ", d, c, tmp[2])
		op("VPUNPCKHDQ", d, c, tmp[3])
		op("VPUNPCKLQDQ", tmp[2], tmp[0], a)
		op("VPUNPCKHQDQ", tmp[2], tmp[0], b)
		op("VPUNPCKLQDQ", tmp[3], tmp[1], c)
		op("VPUNPCKHQDQ", tmp[3], tmp[1], d)
	}

	// Block 4L+m is quarter L of registers m, 4+m, 8+m and 12+m, in that
	// order: a 4×4 transpose of 128-bit quarters.
	comment("Transpose the quarters across groups and store block by block.")
	for m := range 4 {
		a, b, c, d := z(m), z(4+m), z(8+m), z(12+m)
		op("VSHUFI32X4", "$0x44", b, a, tmp[0])
		op("VSHUFI32X4", "$0xee", b, a, tmp[1])
		op("VSHUFI32X4", "$0x44", d, c, tmp[2])
		op("VSHUFI32X4", "$0xee", d, c, tmp[3])
		for l, pair := range [4][3]string{{"$0x88", tmp[2], tmp[0]}, {"$0xdd", tmp[2], tmp[0]}, {"$0x88", tmp[3], tmp[1]}, {"$0xdd", tmp[3], tmp[1]}} {
			op("VSHUFI32X4", pair[0], pair[1], pair[2], a)
			op("VMOVDQU32", a, fmt.Sprintf("%d(DI)", 64*(4*l+m)))
		}
	}
	op("VZEROUPPER")
	op("RET")
	w.Flush()
}

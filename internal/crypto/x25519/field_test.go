package x25519

import (
	"math/rand/v2"
	"testing"
)

// TestFieldAsmMatchesGeneric holds the multiply and square this build runs
// (the standard library's assembly on amd64) to the generic code every
// other GOARCH runs, limb for limb: random elements, elements with every
// limb just under 2^52 (the widest the field's invariant allows between
// operations), and outputs aliasing an input, as the ladder and the comb
// call them. Every result must be back within that invariant.
func TestFieldAsmMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(25519, 7748))
	elem := func(wide bool) fieldElement {
		var l [5]uint64
		for i := range l {
			if wide {
				l[i] = 1<<52 - 1 - rng.Uint64N(1<<8)
			} else {
				l[i] = rng.Uint64N(1 << 52)
			}
		}
		return fieldElement{l[0], l[1], l[2], l[3], l[4]}
	}
	inBounds := func(v *fieldElement) bool {
		return max(v.l0, v.l1, v.l2, v.l3, v.l4) < 1<<52
	}
	for i := 0; i < 4096; i++ {
		x, y := elem(i%4 == 1 || i%4 == 3), elem(i%4 >= 2)
		var got, want fieldElement
		feMul(&got, &x, &y)
		feMulGeneric(&want, &x, &y)
		if got != want || !inBounds(&got) {
			t.Fatalf("%v × %v: feMul %v, feMulGeneric %v", x, y, got, want)
		}
		feSquare(&got, &x)
		feSquareGeneric(&want, &x)
		if got != want || !inBounds(&got) {
			t.Fatalf("%v²: feSquare %v, feSquareGeneric %v", x, got, want)
		}
		got, want = x, x
		feMul(&got, &got, &y)
		feMulGeneric(&want, &want, &y)
		if got != want {
			t.Fatalf("%v × %v in place: feMul %v, feMulGeneric %v", x, y, got, want)
		}
		got, want = x, x
		feSquare(&got, &got)
		feSquareGeneric(&want, &want)
		if got != want {
			t.Fatalf("%v² in place: feSquare %v, feSquareGeneric %v", x, got, want)
		}
	}
}

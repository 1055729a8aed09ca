package x25519

// fe8 is eight field elements, limb-major: fe8[i][lane] is limb i of the
// lane's element, in fieldElement's radix 2^51.
type fe8 [5][8]uint64

// ladder8State is ladder8's memory, laid out as _asm/ladder8.go addresses
// it: the lanes' u (x1), the ladder's two points, two temporaries and the
// clamped scalar.
type ladder8State struct {
	x1, x2, z2, x3, z3, t0, t1 fe8
	e                          [32]byte
}

// ladder8 runs eight Montgomery ladders in lockstep, one per lane, all
// under s.e: from x2 = 1, z2 = 0, x3 = x1, z3 = 1 it leaves the u of
// [e]P in x2/z2, each limb below 2^51 + 2^15 (ladder8_amd64.s, generated
// by _asm/ladder8.go).
//
//go:noescape
func ladder8(s *ladder8State)

// ladderLanes sets x[i]/z[i] as ladder does for each of up to 8 points, in
// one ladder8 call; spare lanes run u = 9 and are dropped.
func ladderLanes(x, z []fieldElement, e *[32]byte, points []*[32]byte) {
	var s ladder8State
	s.e = *e
	for lane := range 8 {
		u := fieldElement{l0: 9}
		if lane < len(points) {
			u.SetBytes(points[lane])
		}
		s.x1[0][lane], s.x1[1][lane], s.x1[2][lane], s.x1[3][lane], s.x1[4][lane] = u.l0, u.l1, u.l2, u.l3, u.l4
		s.x2[0][lane], s.z3[0][lane] = 1, 1
	}
	s.x3 = s.x1
	ladder8(&s)
	for lane := range points {
		x[lane] = fieldElement{s.x2[0][lane], s.x2[1][lane], s.x2[2][lane], s.x2[3][lane], s.x2[4][lane]}
		z[lane] = fieldElement{s.z2[0][lane], s.z2[1][lane], s.z2[2][lane], s.z2[3][lane], s.z2[4][lane]}
	}
}

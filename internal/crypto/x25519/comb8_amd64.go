package x25519

// comb8State is comb8's memory, laid out as _asm/ladder8.go addresses it:
// the lanes' sum v in extended coordinates, the entry added to it,
// temporaries, and the lanes' signed radix-16 digits in the order the
// steps take them, digits[k][lane].
type comb8State struct {
	x, y, z, t fe8
	q          [3]fe8
	tmp        [9]fe8
	digits     [64][8]int8
}

// comb8 runs Table.mul's comb for eight lanes in lockstep over the one
// table t, each lane under its own digits: from v = the identity it adds
// row k%32's entry for digits[k] at each step k, with four doublings
// after step 31, leaving each limb of v below 2^51 + 2^15
// (comb8_amd64.s, generated by _asm/ladder8.go).
//
//go:noescape
func comb8(s *comb8State, t *Table)

// mulLanes sets num[i]/den[i] as mul does for scalars[i], for each i of
// lanes, up to 8 products of t, in one comb8 call; spare lanes add the
// identity and are dropped.
func (t *Table) mulLanes(num, den []fieldElement, lanes []int, scalars []*[32]byte) {
	var s comb8State
	for lane, i := range lanes {
		e := clamp(scalars[i])
		d := signedRadix16(&e)
		for k := range 32 {
			s.digits[k][lane], s.digits[32+k][lane] = d[2*k+1], d[2*k]
		}
	}
	for lane := range 8 {
		s.y[0][lane], s.z[0][lane] = 1, 1
	}
	comb8(&s, t)
	for lane, i := range lanes {
		y := fieldElement{s.y[0][lane], s.y[1][lane], s.y[2][lane], s.y[3][lane], s.y[4][lane]}
		z := fieldElement{s.z[0][lane], s.z[1][lane], s.z[2][lane], s.z[3][lane], s.z[4][lane]}
		num[i].Add(&z, &y)
		den[i].Subtract(&z, &y)
	}
}

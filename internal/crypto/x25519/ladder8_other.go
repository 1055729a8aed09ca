//go:build !amd64

package x25519

import "runtime"

func detectIFMA() (bool, string) { return false, "GOARCH=" + runtime.GOARCH + ", not amd64" }

func ladderLanes(x, z []fieldElement, e *[32]byte, points []*[32]byte) {
	for i, u := range points {
		ladder(&x[i], &z[i], e, u)
	}
}

func (t *Table) mulLanes(num, den []fieldElement, lanes []int, scalars []*[32]byte) {
	for _, i := range lanes {
		t.mul(&num[i], &den[i], scalars[i])
	}
}

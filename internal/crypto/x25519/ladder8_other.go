//go:build !amd64

package x25519

import "runtime"

func detectIFMA() (bool, string) { return false, "GOARCH=" + runtime.GOARCH + ", not amd64" }

func ladderLanes(x, z []fieldElement, e *[32]byte, points []*[32]byte) {
	for i, u := range points {
		ladder(&x[i], &z[i], e, u)
	}
}

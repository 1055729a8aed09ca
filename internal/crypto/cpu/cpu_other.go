//go:build !amd64

package cpu

import "runtime"

// AVX512 reports false off amd64, naming the GOARCH.
func AVX512(...Feature) (bool, string) { return false, "GOARCH=" + runtime.GOARCH + ", not amd64" }

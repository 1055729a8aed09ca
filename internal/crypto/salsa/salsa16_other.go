//go:build !amd64

package salsa

// salsa16 is never called off amd64, where AVX512 is false.
func salsa16(out *[PassSize]byte, in *[16]uint32) { panic("salsa: no AVX-512 kernel") }

package salsa

// salsa16 writes the sixteen keystream blocks of the input block in from
// its counter on, counter+i in block i, one per 32-bit lane of the
// AVX-512 kernel (salsa16_amd64.s, generated by _asm/salsa16.go).
//
//go:noescape
func salsa16(out *[PassSize]byte, in *[16]uint32)

// Package cpu reads the CPUID and XCR0 bits that the crypto kernels'
// switches, x25519.IFMA and salsa.AVX512, are set from: one decoding of
// CPUID leaf 7 and of the OS's saved register state for both.
package cpu

// Feature is one AVX-512 bit of CPUID.(EAX=7,ECX=0):EBX.
type Feature struct {
	bit  uint
	name string
}

var (
	// AVX512F is the AVX-512 foundation: 32-bit and 64-bit lane adds,
	// logic, rotates and shuffles on ZMM registers.
	AVX512F = Feature{16, "AVX512F"}
	// AVX512IFMA is the 52-bit integer multiply-add, VPMADD52LUQ/HUQ.
	AVX512IFMA = Feature{21, "AVX512IFMA"}
)

package cpu

import "fmt"

func cpuid(leaf, sub uint32) (a, b, c, d uint32)

func xgetbv() (eax uint32)

// AVX512 reports whether this CPU has every feature of need and its OS
// saves the opmask and ZMM state, and if not, names the bit that is
// missing.
func AVX512(need ...Feature) (bool, string) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, "no CPUID leaf 7"
	}
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 {
		return false, "no OSXSAVE (CPUID.1:ECX[27])"
	}
	_, b, _, _ := cpuid(7, 0)
	for _, f := range need {
		if b&(1<<f.bit) == 0 {
			return false, fmt.Sprintf("no %s (CPUID.(EAX=7,ECX=0):EBX[%d])", f.name, f.bit)
		}
	}
	if xgetbv()&0xe6 != 0xe6 {
		return false, "the OS does not save opmask and ZMM state (XCR0 & 0xE6 != 0xE6)"
	}
	return true, ""
}

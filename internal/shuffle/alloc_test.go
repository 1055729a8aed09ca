//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds (`make allocs`).
package shuffle

import "testing"

// TestNewAllocs: a permutation costs its own slice and one read buffer,
// whatever its length — not one allocation and one read per element.
func TestNewAllocs(t *testing.T) {
	for _, n := range []int{2, 620, 3 * maxBulkDraws} {
		if got := testing.AllocsPerRun(10, func() { New(n, nil) }); got > 2 {
			t.Errorf("New(%d) allocates %.0f times, want at most 2", n, got)
		}
	}
}

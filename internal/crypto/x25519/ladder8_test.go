package x25519

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestLadder8Generated reruns the generator for each kernel it emits and
// requires its output to be the committed file byte for byte, so neither
// can drift from the other.
func TestLadder8Generated(t *testing.T) {
	for _, kernel := range []string{"ladder8", "comb8"} {
		want, err := os.ReadFile(kernel + "_amd64.s")
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command("go", "run", "./_asm/ladder8.go", kernel)
		cmd.Stderr = os.Stderr
		got, err := cmd.Output()
		if err != nil {
			t.Fatalf("go run ./_asm/ladder8.go %s: %v", kernel, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s_amd64.s is not what _asm/ladder8.go emits: regenerate it with go run ./_asm/ladder8.go %[1]s > %[1]s_amd64.s", kernel)
		}
	}
}

// BenchmarkLadderLanes is one padded group of one on the IFMA kernel,
// without the inversion: against BenchmarkLadder it is why a group of one
// runs the scalar ladder.
func BenchmarkLadderLanes(b *testing.B) {
	if !IFMA {
		b.Skip("no IFMA kernel: " + WhyNoIFMA)
	}
	var x, z [8]fieldElement
	e := clamp(&[32]byte{1})
	u := [32]byte{9}
	for b.Loop() {
		ladderLanes(x[:], z[:], &e, []*[32]byte{&u})
	}
}

// BenchmarkCombLanes is one product of the base table, without the
// inversion, on the scalar comb and as a padded group on the comb's IFMA
// kernel: the group costs less, so MulBatch pads every partial group.
func BenchmarkCombLanes(b *testing.B) {
	var num, den [8]fieldElement
	scalar := [32]byte{1}
	b.Run("scalar", func(b *testing.B) {
		for b.Loop() {
			BaseTable().mul(&num[0], &den[0], &scalar)
		}
	})
	if !IFMA {
		b.Skip("no IFMA kernel: " + WhyNoIFMA)
	}
	b.Run("ifma", func(b *testing.B) {
		for b.Loop() {
			BaseTable().mulLanes(num[:], den[:], []int{0}, []*[32]byte{&scalar})
		}
	})
}

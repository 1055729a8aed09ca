package x25519

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// TestLadder8Generated reruns the generator and requires its output to be
// the committed kernel byte for byte, so neither can drift from the other.
func TestLadder8Generated(t *testing.T) {
	want, err := os.ReadFile("ladder8_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./_asm/ladder8.go")
	cmd.Stderr = os.Stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./_asm/ladder8.go: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("ladder8_amd64.s is not what _asm/ladder8.go emits: regenerate it with go run ./_asm/ladder8.go > ladder8_amd64.s")
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

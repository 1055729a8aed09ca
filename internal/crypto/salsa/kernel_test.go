package salsa

import (
	"bytes"
	"crypto/rand"
	"math"
	"os"
	"os/exec"
	"testing"
)

// forceScalar makes KeyStream and XORKeyStream run the scalar block loop
// until restore is called.
func forceScalar() (restore func()) {
	saved := AVX512
	AVX512 = false
	return func() { AVX512 = saved }
}

// paths runs f on the AVX-512 kernel (on a CPU without it, an "avx512" row
// skips, naming what the CPU lacks) and again as "scalar", on the block
// loop, forced.
func paths(t *testing.T, f func(t *testing.T)) {
	if AVX512 {
		f(t)
	} else {
		t.Run("avx512", func(t *testing.T) { t.Skip("no AVX-512 kernel: " + WhyNoAVX512) })
	}
	t.Run("scalar", func(t *testing.T) {
		defer forceScalar()()
		f(t)
	})
}

// benchPaths runs f as "avx512", on the kernel where the CPU has it, and
// as "scalar", on the block loop, forced.
func benchPaths(b *testing.B, f func(b *testing.B)) {
	if AVX512 {
		b.Run("avx512", f)
	}
	b.Run("scalar", func(b *testing.B) {
		defer forceScalar()()
		f(b)
	})
}

// refXOR is XORKeyStream as a loop over KeyStreamBlock, one block at a
// time.
func refXOR(dst, src []byte, key *[KeySize]byte, nonce *[NonceSize]byte, counter uint64) {
	var ks [BlockSize]byte
	for i := 0; i < len(src); i += BlockSize {
		KeyStreamBlock(&ks, key, nonce, counter)
		counter++
		for j := i; j < min(i+BlockSize, len(src)); j++ {
			dst[j] = src[j] ^ ks[j-i]
		}
	}
}

// checkXOR holds XORKeyStream, into a separate buffer and in place, to
// refXOR for one input.
func checkXOR(t *testing.T, key *[KeySize]byte, nonce *[NonceSize]byte, counter uint64, src []byte) {
	t.Helper()
	want := make([]byte, len(src))
	refXOR(want, src, key, nonce, counter)
	got := make([]byte, len(src))
	XORKeyStream(got, src, key, nonce, counter)
	if !bytes.Equal(got, want) {
		t.Fatalf("len %d, counter %#x: XORKeyStream differs from the block loop", len(src), counter)
	}
	inPlace := bytes.Clone(src)
	XORKeyStream(inPlace, inPlace, key, nonce, counter)
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("len %d, counter %#x: XORKeyStream in place differs from the block loop", len(src), counter)
	}
}

// TestKeyStreamMatchesBlocks holds XORKeyStream to the block loop across
// pass boundaries, and at counters whose low word wraps inside a pass and
// whose 64 bits wrap.
func TestKeyStreamMatchesBlocks(t *testing.T) {
	paths(t, func(t *testing.T) {
		var key [KeySize]byte
		var nonce [NonceSize]byte
		rand.Read(key[:])
		rand.Read(nonce[:])
		src := make([]byte, 4<<10+1)
		rand.Read(src)
		for _, counter := range []uint64{0, 16, math.MaxUint32 - 5, math.MaxUint32, math.MaxUint64 - 3} {
			for _, n := range []int{0, 1, 63, 64, 65, 1000, 1023, 1024, 1025, 2048 + 64, 4<<10 + 1} {
				checkXOR(t, &key, &nonce, counter, src[:n])
			}
		}
	})
}

// FuzzXORKeyStream is TestKeyStreamMatchesBlocks' differential over
// fuzzed keys, nonces, counters and lengths up to 4 KiB, on the kernel and
// again on the scalar loop.
func FuzzXORKeyStream(f *testing.F) {
	if !AVX512 {
		f.Log("no AVX-512 kernel, the differential runs the scalar loop twice: " + WhyNoAVX512)
	}
	f.Add(make([]byte, KeySize), make([]byte, NonceSize), uint64(0), uint16(1024))
	f.Add(bytes.Repeat([]byte{0xff}, KeySize), bytes.Repeat([]byte{0xff}, NonceSize), uint64(math.MaxUint32-7), uint16(4096))
	f.Add(make([]byte, KeySize), make([]byte, NonceSize), uint64(math.MaxUint64), uint16(100))
	f.Fuzz(func(t *testing.T, key, nonce []byte, counter uint64, n uint16) {
		if len(key) != KeySize || len(nonce) != NonceSize || n > 4<<10 {
			t.Skip()
		}
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i)
		}
		checkXOR(t, (*[KeySize]byte)(key), (*[NonceSize]byte)(nonce), counter, src)
		defer forceScalar()()
		checkXOR(t, (*[KeySize]byte)(key), (*[NonceSize]byte)(nonce), counter, src)
	})
}

// TestSalsa16Generated reruns the kernel's generator and requires its
// output to be the committed file byte for byte.
func TestSalsa16Generated(t *testing.T) {
	want, err := os.ReadFile("salsa16_amd64.s")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", "./_asm/salsa16.go")
	cmd.Stderr = os.Stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("go run ./_asm/salsa16.go: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("salsa16_amd64.s is not what _asm/salsa16.go emits: regenerate it with go run ./_asm/salsa16.go > salsa16_amd64.s")
	}
}

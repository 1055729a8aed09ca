package shuffle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

// perElement is New as it was before the draws were read in bulk: one
// 8-byte read per draw. It is the reference TestBulkReadSamePermutation
// holds New to.
func perElement(n int, rng io.Reader) Permutation {
	p := make(Permutation, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		max := uint64(i + 1)
		limit := (^uint64(0) / max) * max
		var buf [8]byte
		for {
			if _, err := io.ReadFull(rng, buf[:]); err != nil {
				panic(err)
			}
			if v := binary.BigEndian.Uint64(buf[:]); v < limit {
				j := int(v % max)
				p[i], p[j] = p[j], p[i]
				break
			}
		}
	}
	return p
}

// rejecting is a seeded stream in which every draw at an index divisible
// by `every` is all ones — above every rejection limit, so refused for
// every element.
type rejecting struct {
	rng   *rand.Rand
	every int
	draws int
	buf   []byte
}

func (r *rejecting) Read(p []byte) (int, error) {
	for i := range p {
		if len(r.buf) == 0 {
			r.buf = make([]byte, 8)
			if r.draws%r.every == 0 {
				for j := range r.buf {
					r.buf[j] = 0xff
				}
			} else {
				r.rng.Read(r.buf)
			}
			r.draws++
		}
		p[i], r.buf = r.buf[0], r.buf[1:]
	}
	return len(p), nil
}

// TestBulkReadSamePermutation: reading the draws in bulk consumes the
// stream exactly as one read per draw did — same permutation, same number
// of bytes taken — with and without rejections, within one buffer and
// across several.
func TestBulkReadSamePermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 620, maxBulkDraws, maxBulkDraws + 2, 3*maxBulkDraws + 17} {
		for _, every := range []int{1 << 30, 7, 2} { // no rejections, some, every other draw
			a := &rejecting{rng: rand.New(rand.NewSource(int64(n))), every: every}
			b := &rejecting{rng: rand.New(rand.NewSource(int64(n))), every: every}
			if every < 1<<30 {
				a.draws, b.draws = 1, 1 // start on an accepted draw: index 0 would always be refused
			}
			got, want := New(n, a), perElement(n, b)
			if len(got) != n {
				t.Fatalf("n=%d: length %d", n, len(got))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d, rejecting every %d: permutations differ at %d", n, every, i)
				}
			}
			if a.draws != b.draws {
				t.Fatalf("n=%d, rejecting every %d: took %d draws from the stream, one at a time takes %d", n, every, a.draws, b.draws)
			}
		}
	}
}

// TestFailedSourcePanics: a server that cannot shuffle randomly must not
// proceed.
func TestFailedSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New returned a permutation from a failed randomness source")
		}
	}()
	New(10, io.MultiReader(bytes.NewReader(make([]byte, 12)), failing{}))
}

type failing struct{}

func (failing) Read([]byte) (int, error) { return 0, errors.New("entropy exhausted") }

func TestNewIsPermutation(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 1000} {
		p := New(n, nil)
		if len(p) != n {
			t.Fatalf("n=%d: length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("n=%d: not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestApplyInvertRoundTrip(t *testing.T) {
	src := make([][]byte, 50)
	for i := range src {
		src[i] = []byte{byte(i)}
	}
	p := New(len(src), nil)
	shuffled := p.Apply(src)
	back := p.Invert(shuffled)
	for i := range src {
		if !bytes.Equal(back[i], src[i]) {
			t.Fatalf("roundtrip failed at %d", i)
		}
	}
}

// TestApplyMovesElements: with a deterministic source, apply actually
// permutes (probability of identity for n=100 is negligible).
func TestApplyMovesElements(t *testing.T) {
	src := make([][]byte, 100)
	for i := range src {
		src[i] = []byte{byte(i)}
	}
	p := New(len(src), rand.New(rand.NewSource(1)))
	shuffled := p.Apply(src)
	same := 0
	for i := range src {
		if bytes.Equal(shuffled[i], src[i]) {
			same++
		}
	}
	if same > 20 {
		t.Fatalf("%d elements unmoved; permutation suspicious", same)
	}
}

// TestUniformity: over many draws of permutations of 4 elements, each of
// the 24 orderings appears with roughly equal frequency (chi-square style
// bound).
func TestUniformity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	counts := map[[4]int]int{}
	const trials = 24000
	for i := 0; i < trials; i++ {
		p := New(4, rng)
		var key [4]int
		copy(key[:], p)
		counts[key]++
	}
	if len(counts) != 24 {
		t.Fatalf("saw %d of 24 permutations", len(counts))
	}
	want := trials / 24
	for k, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("permutation %v count %d, want ≈ %d", k, c, want)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data [][]byte, seed int64) bool {
		p := New(len(data), rand.New(rand.NewSource(seed)))
		back := p.Invert(p.Apply(data))
		for i := range data {
			if !bytes.Equal(back[i], data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNew100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		New(100000, nil)
	}
}

package noise

import (
	"math"
	"math/rand"
	"testing"
)

// CDF evaluates the (untruncated) Laplace cumulative distribution function
// at x, against which the tests check the sampler.
func (l Laplace) CDF(x float64) float64 {
	if x < l.Mu {
		return 0.5 * math.Exp((x-l.Mu)/l.B)
	}
	return 1 - 0.5*math.Exp(-(x-l.Mu)/l.B)
}

func TestSampleNonNegative(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	// A distribution centered below zero still never yields negatives.
	l := Laplace{Mu: -10, B: 5}
	for i := 0; i < 10000; i++ {
		if v := l.Sample(src); v < 0 {
			t.Fatalf("negative sample %d", v)
		}
	}
}

// TestSampleMean verifies the empirical mean of the truncated sampler is
// close to µ when µ ≫ b (truncation is negligible there), matching the
// paper's use of µ as "the average noise per server" (§6.4).
func TestSampleMean(t *testing.T) {
	src := rand.New(rand.NewSource(42))
	l := Laplace{Mu: 300000, B: 13800}
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(l.Sample(src))
	}
	mean := sum / n
	// Std dev of the mean ≈ √2·b/√n ≈ 138; allow 6σ plus ceil bias.
	if math.Abs(mean-300000) > 1000 {
		t.Fatalf("mean %.0f too far from 300000", mean)
	}
}

// TestSampleSpread verifies the empirical standard deviation is close to
// √2·b.
func TestSampleSpread(t *testing.T) {
	src := rand.New(rand.NewSource(7))
	l := Laplace{Mu: 300000, B: 13800}
	const n = 20000
	samples := make([]float64, n)
	var sum float64
	for i := range samples {
		samples[i] = float64(l.Sample(src))
		sum += samples[i]
	}
	mean := sum / n
	var ss float64
	for _, v := range samples {
		ss += (v - mean) * (v - mean)
	}
	sd := math.Sqrt(ss / float64(n-1))
	want := math.Sqrt2 * 13800
	if math.Abs(sd-want)/want > 0.1 {
		t.Fatalf("sd %.0f, want ≈ %.0f", sd, want)
	}
}

// TestTruncationMass verifies that for µ ≤ 0 roughly the right fraction of
// samples are truncated to zero: P(X ≤ 0) = CDF(0).
func TestTruncationMass(t *testing.T) {
	src := rand.New(rand.NewSource(11))
	l := Laplace{Mu: 0, B: 100}
	const n = 50000
	zeros := 0
	for i := 0; i < n; i++ {
		if l.Sample(src) == 0 {
			zeros++
		}
	}
	frac := float64(zeros) / n
	if math.Abs(frac-0.5) > 0.02 {
		t.Fatalf("zero fraction %.3f, want ≈ 0.5", frac)
	}
}

func TestCDF(t *testing.T) {
	l := Laplace{Mu: 10, B: 2}
	if got := l.CDF(10); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDF(µ) = %v, want 0.5", got)
	}
	if got := l.CDF(math.Inf(1)); got != 1 {
		t.Fatalf("CDF(∞) = %v", got)
	}
	if got := l.CDF(math.Inf(-1)); got != 0 {
		t.Fatalf("CDF(-∞) = %v", got)
	}
	// Monotonicity on a grid.
	prev := -1.0
	for x := -20.0; x <= 40; x += 0.5 {
		c := l.CDF(x)
		if c < prev {
			t.Fatalf("CDF not monotone at %v", x)
		}
		prev = c
	}
}

// TestCDFMatchesEmpirical cross-checks the sampler against the analytic
// CDF at a few quantiles.
func TestCDFMatchesEmpirical(t *testing.T) {
	src := rand.New(rand.NewSource(3))
	l := Laplace{Mu: 1000, B: 200}
	const n = 50000
	counts := map[float64]int{800: 0, 1000: 0, 1400: 0}
	for i := 0; i < n; i++ {
		v := float64(l.Sample(src))
		for q := range counts {
			if v <= q {
				counts[q]++
			}
		}
	}
	for q, c := range counts {
		emp := float64(c) / n
		want := l.CDF(q)
		if math.Abs(emp-want) > 0.02 {
			t.Fatalf("P(X ≤ %v): empirical %.3f, analytic %.3f", q, emp, want)
		}
	}
}

func TestFixed(t *testing.T) {
	f := Fixed{N: 300000}
	for i := 0; i < 3; i++ {
		if got := f.Sample(nil); got != 300000 {
			t.Fatalf("Fixed.Sample = %d", got)
		}
	}
}

// TestCryptoSourceRange draws from the crypto source and sanity-checks the
// range and non-constancy.
func TestCryptoSourceRange(t *testing.T) {
	src := Crypto()
	seen := map[float64]bool{}
	for i := 0; i < 100; i++ {
		v := src.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("out of range: %v", v)
		}
		seen[v] = true
	}
	if len(seen) < 90 {
		t.Fatalf("crypto source suspiciously repetitive: %d distinct of 100", len(seen))
	}
}

func BenchmarkSample(b *testing.B) {
	src := rand.New(rand.NewSource(1))
	l := Laplace{Mu: 300000, B: 13800}
	for i := 0; i < b.N; i++ {
		l.Sample(src)
	}
}

package privacy

import (
	"math"
	"testing"
)

// target is the paper's standard privacy goal: ε′ = ln 2, δ′ = 10⁻⁴.
var target = Guarantee{Eps: Ln2, Delta: 1e-4}

func TestConvoRoundFormulas(t *testing.T) {
	g := ConvoRound(Params{Mu: 300000, B: 13800})
	if want := 4.0 / 13800; math.Abs(g.Eps-want) > 1e-15 {
		t.Fatalf("eps = %v, want %v", g.Eps, want)
	}
	if want := math.Exp((2 - 300000.0) / 13800); math.Abs(g.Delta-want)/want > 1e-12 {
		t.Fatalf("delta = %v, want %v", g.Delta, want)
	}
}

func TestDialRoundFormulas(t *testing.T) {
	g := DialRound(Params{Mu: 8000, B: 500})
	if want := 2.0 / 500; math.Abs(g.Eps-want) > 1e-15 {
		t.Fatalf("eps = %v, want %v", g.Eps, want)
	}
	if want := 0.5 * math.Exp((1-8000.0)/500); math.Abs(g.Delta-want)/want > 1e-12 {
		t.Fatalf("delta = %v, want %v", g.Delta, want)
	}
}

// TestPaperConvoConfigurations reproduces §6.4: the three noise
// distributions (µ=150K, b=7,300), (µ=300K, b=13,800), (µ=450K, b=20,000)
// support roughly 70,000 / 250,000 / 500,000 rounds at ε′=ln2, δ′=10⁻⁴.
func TestPaperConvoConfigurations(t *testing.T) {
	cases := []struct {
		params Params
		paperK int
	}{
		{Params{Mu: 150000, B: 7300}, 70000},
		{Params{Mu: 300000, B: 13800}, 250000},
		{Params{Mu: 450000, B: 20000}, 500000},
	}
	for _, c := range cases {
		k := MaxRounds(ConvoRound(c.params), target, DefaultD)
		// The paper rounds its k values; accept within 10%.
		if math.Abs(float64(k-c.paperK))/float64(c.paperK) > 0.10 {
			t.Errorf("µ=%v b=%v: max rounds %d, paper says ≈%d", c.params.Mu, c.params.B, k, c.paperK)
		}
	}
}

// TestPaperHeadlineGuarantee checks the abstract's claim: with the typical
// configuration (µ=300K), a user who exchanges 200,000 messages keeps the
// adversary's confidence within 2× (ε′ ≤ ln 2) with δ′ ≤ 10⁻⁴.
func TestPaperHeadlineGuarantee(t *testing.T) {
	g := ConvoRound(Params{Mu: 300000, B: 13800})
	c := Compose(g, 200000, DefaultD)
	if c.Eps > Ln2*1.001 {
		t.Fatalf("ε′ after 200K rounds = %v > ln2", c.Eps)
	}
	if c.Delta > 1e-4 {
		t.Fatalf("δ′ after 200K rounds = %v > 1e-4", c.Delta)
	}
}

// TestPaperDialConfigurations reproduces §6.5: (µ=8,000, b=500) covers
// about 1,200 dialing rounds. The paper's printed (µ=13,000, b=7,700) is
// inconsistent (it gives per-round δ ≈ 0.09); with the b=770 correction it
// covers ≈3,500 rounds. (µ=20,000, b=1,130) is checked for shape: its
// curve lies between/beyond the others and covers thousands of rounds.
func TestPaperDialConfigurations(t *testing.T) {
	k1 := MaxRounds(DialRound(Params{Mu: 8000, B: 500}), target, DefaultD)
	if math.Abs(float64(k1-1200))/1200 > 0.15 {
		t.Errorf("µ=8K b=500: max rounds %d, paper says ≈1200", k1)
	}
	k2 := MaxRounds(DialRound(Params{Mu: 13000, B: 770}), target, DefaultD)
	if k2 < k1 {
		t.Errorf("µ=13K should cover more rounds than µ=8K: %d < %d", k2, k1)
	}
	k3 := MaxRounds(DialRound(Params{Mu: 20000, B: 1130}), target, DefaultD)
	if k3 < k2 {
		t.Errorf("µ=20K should cover more rounds than µ=13K: %d < %d", k3, k2)
	}
	if k3 < 4000 {
		t.Errorf("µ=20K b=1130: max rounds %d, expected thousands", k3)
	}
}

// TestComposeMonotone: ε′ and δ′ grow with k.
func TestComposeMonotone(t *testing.T) {
	g := ConvoRound(Params{Mu: 300000, B: 13800})
	prev := Guarantee{}
	for _, k := range []int{1, 10, 100, 1000, 10000, 100000, 1000000} {
		c := Compose(g, k, DefaultD)
		if c.Eps < prev.Eps || c.Delta < prev.Delta {
			t.Fatalf("composition not monotone at k=%d", k)
		}
		prev = c
	}
}

// TestMaxRoundsBoundary verifies MaxRounds returns the exact boundary.
func TestMaxRoundsBoundary(t *testing.T) {
	g := ConvoRound(Params{Mu: 300000, B: 13800})
	k := MaxRounds(g, target, DefaultD)
	if k <= 0 {
		t.Fatal("expected positive k")
	}
	in := Compose(g, k, DefaultD)
	if in.Eps > target.Eps || in.Delta > target.Delta {
		t.Fatalf("k=%d exceeds target: %+v", k, in)
	}
	out := Compose(g, k+1, DefaultD)
	if out.Eps <= target.Eps && out.Delta <= target.Delta {
		t.Fatalf("k+1=%d still within target", k+1)
	}
}

// TestMaxRoundsZeroForWeakNoise: tiny noise cannot support even 1 round at
// a strict target.
func TestMaxRoundsZeroForWeakNoise(t *testing.T) {
	g := ConvoRound(Params{Mu: 10, B: 1})
	if k := MaxRounds(g, Guarantee{Eps: 0.01, Delta: 1e-6}, 1e-7); k != 0 {
		t.Fatalf("expected 0 rounds, got %d", k)
	}
}

// TestMaxRoundsEffectivelyUnbounded: strong noise against a lax target
// exercises the early-exit cap instead of searching forever, and the capped
// k still meets the target: a per-round ε of 1.2e-7 stays within ln 2 at
// 2^40 rounds but not at 2^41.
func TestMaxRoundsEffectivelyUnbounded(t *testing.T) {
	for _, c := range []struct {
		g, target Guarantee
		d         float64
	}{
		{ConvoRound(Params{Mu: 1e9, B: 1e7}), Guarantee{Eps: 1e6, Delta: 0.5}, 1e-9},
		{Guarantee{Eps: 1.2e-7}, target, DefaultD},
	} {
		k := MaxRounds(c.g, c.target, c.d)
		if k < 1<<32 {
			t.Fatalf("expected effectively unbounded k, got %d", k)
		}
		if got := Compose(c.g, k, c.d); got.Eps > c.target.Eps || got.Delta > c.target.Delta {
			t.Fatalf("MaxRounds = %d, but %d rounds compose to %+v, beyond the target %+v", k, k, got, c.target)
		}
	}
}

// TestScalingLaws verifies the §6.4 scaling claims: µ grows ∝ √k, linearly
// with 1/ε′, and ∝ log(1/δ′); and is independent of the number of users
// (implicit: no user count appears anywhere in the analysis).
func TestScalingLaws(t *testing.T) {
	mu := func(k int, tgt Guarantee, d float64) float64 {
		p, err := NoiseForRounds(Conversation, k, tgt, d)
		if err != nil {
			t.Fatal(err)
		}
		return p.Mu
	}

	// µ ∝ √k: quadrupling k should roughly double µ.
	m1 := mu(50000, target, DefaultD)
	m2 := mu(200000, target, DefaultD)
	if r := m2 / m1; r < 1.7 || r > 2.3 {
		t.Errorf("µ(4k)/µ(k) = %.2f, want ≈ 2 (√k scaling)", r)
	}

	// µ ∝ 1/ε′: halving ε′ should roughly double µ.
	m3 := mu(50000, Guarantee{Eps: Ln2 / 2, Delta: 1e-4}, DefaultD)
	if r := m3 / m1; r < 1.6 || r > 2.5 {
		t.Errorf("µ(ε/2)/µ(ε) = %.2f, want ≈ 2 (1/ε scaling)", r)
	}

	// µ ∝ log(1/δ′): squaring 1/δ′ (doubling the log) should grow µ by
	// far less than 2× (logarithmic, not linear). The free parameter d
	// must sit below the δ′ target, so use the same small d on both sides
	// of the comparison.
	m1d := mu(50000, Guarantee{Eps: Ln2, Delta: 1e-4}, 1e-9)
	m4 := mu(50000, Guarantee{Eps: Ln2, Delta: 1e-8}, 1e-9)
	if r := m4 / m1d; r > 1.6 {
		t.Errorf("µ(δ=1e-8)/µ(δ=1e-4) = %.2f, want well below 2 (log scaling)", r)
	}
	if m4 <= m1d {
		t.Errorf("stricter δ should need more noise: %.0f <= %.0f", m4, m1d)
	}
}

// TestBestScaleNearPaper verifies the parameter sweep lands near the
// paper's hand-picked scales for each mean.
func TestBestScaleNearPaper(t *testing.T) {
	cases := []struct {
		mu     float64
		paperB float64
		paperK int
	}{
		{150000, 7300, 70000},
		{300000, 13800, 250000},
		{450000, 20000, 500000},
	}
	for _, c := range cases {
		b, k := BestScale(Conversation, c.mu, target, DefaultD)
		if math.Abs(b-c.paperB)/c.paperB > 0.25 {
			t.Errorf("µ=%v: best b %.0f, paper uses %.0f", c.mu, b, c.paperB)
		}
		if float64(k) < float64(c.paperK)*0.9 {
			t.Errorf("µ=%v: best k %d, paper reports ≈%d", c.mu, k, c.paperK)
		}
	}
}

// TestPosteriorBeliefs reproduces the §6.4 worked examples:
// prior 50% → 67% at ε=ln2, 75% at ε=ln3; prior 1% → 3% at ε=ln3.
func TestPosteriorBeliefs(t *testing.T) {
	if got := PosteriorBelief(0.5, math.Log(2)); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("posterior(50%%, ln2) = %v, want 2/3", got)
	}
	if got := PosteriorBelief(0.5, math.Log(3)); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("posterior(50%%, ln3) = %v, want 0.75", got)
	}
	got := PosteriorBelief(0.01, math.Log(3))
	if math.Abs(got-0.0294) > 0.001 {
		t.Errorf("posterior(1%%, ln3) = %v, want ≈0.03", got)
	}
	// The multiplicative bound: posterior/prior ≤ e^ε.
	for _, prior := range []float64{0.001, 0.01, 0.1, 0.5, 0.9} {
		for _, eps := range []float64{0.1, Ln2, math.Log(3)} {
			p := PosteriorBelief(prior, eps)
			if p/prior > math.Exp(eps)+1e-12 {
				t.Errorf("posterior ratio exceeds e^ε at prior=%v eps=%v", prior, eps)
			}
			if p < prior {
				t.Errorf("posterior below prior at prior=%v eps=%v", prior, eps)
			}
		}
	}
}

// TestCurveShape checks Figure 7's qualitative content: at k=250,000 the
// µ=300K curve sits at e^{ε′} ≈ 2, the µ=150K curve is far worse, and the
// µ=450K curve is better.
func TestCurveShape(t *testing.T) {
	k := 250000
	at := func(mu, b float64) float64 {
		c := Compose(ConvoRound(Params{Mu: mu, B: b}), k, DefaultD)
		return math.Exp(c.Eps)
	}
	mid := at(300000, 13800)
	if mid < 1.8 || mid > 2.2 {
		t.Errorf("e^ε′(µ=300K, k=250K) = %.3f, want ≈ 2", mid)
	}
	if low := at(150000, 7300); low < mid*1.5 {
		t.Errorf("µ=150K curve should be much worse at k=250K: %.3f vs %.3f", low, mid)
	}
	if high := at(450000, 20000); high > mid {
		t.Errorf("µ=450K curve should be better at k=250K: %.3f vs %.3f", high, mid)
	}
}

// TestCurvePoints sanity-checks the Figure 7 series generator.
func TestCurvePoints(t *testing.T) {
	pts := Curve(Conversation, Params{Mu: 300000, B: 13800}, 10000, 1000000, 25, DefaultD)
	if len(pts) != 25 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].K != 10000 {
		t.Fatalf("first k = %d", pts[0].K)
	}
	if last := pts[len(pts)-1].K; last < 990000 || last > 1010000 {
		t.Fatalf("last k = %d", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].ExpEps < pts[i-1].ExpEps || pts[i].DeltaPrm < pts[i-1].DeltaPrm {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
}

// TestFigure6Table regenerates Figure 6 exactly.
func TestFigure6Table(t *testing.T) {
	want := [][]Delta{
		// cols:   Idle      ConvB      ConvX
		{{0, 0}, {-2, 1}, {0, 0}},  // cover: Idle
		{{2, -1}, {0, 0}, {2, -1}}, // cover: Conversation with b
		{{2, -1}, {0, 0}, {2, -1}}, // cover: Conversation with c
		{{0, 0}, {-2, 1}, {0, 0}},  // cover: Conversation with x
		{{0, 0}, {-2, 1}, {0, 0}},  // cover: Conversation with y
	}
	got := SensitivityTable()
	if len(got) != len(want) {
		t.Fatalf("rows: %d", len(got))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("entry [%s][%s] = %+v, want %+v",
					Figure6Rows[i], Figure6Cols[j], got[i][j], want[i][j])
			}
		}
	}
}

// TestMaxSensitivity verifies the Theorem 1 sensitivity bound: |Δm1| ≤ 2
// and |Δm2| ≤ 1 over all action/cover pairs, with both bounds attained.
func TestMaxSensitivity(t *testing.T) {
	m1, m2 := MaxSensitivity()
	if m1 != 2 || m2 != 1 {
		t.Fatalf("max sensitivity (%d, %d), want (2, 1)", m1, m2)
	}
}

func BenchmarkCompose(b *testing.B) {
	g := ConvoRound(Params{Mu: 300000, B: 13800})
	for i := 0; i < b.N; i++ {
		Compose(g, 250000, DefaultD)
	}
}

func BenchmarkBestScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		BestScale(Conversation, 300000, target, DefaultD)
	}
}

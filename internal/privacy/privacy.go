// Package privacy implements Vuvuzela's differential-privacy analysis
// (paper §6 and Appendix A): per-round guarantees (Theorem 1), multi-round
// adaptive composition (Theorem 2), the sensitivity table of Figure 6, the
// parameter-selection methodology behind Figures 7 and 8, and the Bayesian
// posterior-belief interpretation of §6.4.
package privacy

import (
	"errors"
	"math"
)

// Ln2 is ε′ = ln 2, the paper's standard privacy target ("within 2× of the
// likelihood").
var Ln2 = math.Log(2)

// Params are the Laplace noise parameters of one server: mean Mu and scale
// B (standard deviation √2·B).
type Params struct {
	Mu float64 // mean (location)
	B  float64 // scale
}

// Guarantee is an (ε, δ) differential-privacy guarantee.
type Guarantee struct {
	Eps   float64 // ε, the privacy-loss bound
	Delta float64 // δ, the probability the ε bound fails
}

// ConvoRound computes the single-round (ε, δ) guarantee of the
// conversation protocol per Theorem 1: noise ⌈max(0,Laplace(µ,b))⌉ on m1
// and ⌈max(0,Laplace(µ/2,b/2))⌉ on m2 gives ε = 4/b and δ = e^{(2−µ)/b}
// against changes of up to 2 in m1 and 1 in m2.
func ConvoRound(p Params) Guarantee {
	return Guarantee{
		Eps:   4 / p.B,
		Delta: math.Exp((2 - p.Mu) / p.B),
	}
}

// DialRound computes the single-round (ε, δ) guarantee of the dialing
// protocol per §6.5: changing one user's action changes up to two dead-drop
// invitation counts by 1 each, giving ε = 2/b and δ = ½·e^{(1−µ)/b}.
func DialRound(p Params) Guarantee {
	return Guarantee{
		Eps:   2 / p.B,
		Delta: 0.5 * math.Exp((1-p.Mu)/p.B),
	}
}

// Compose applies Theorem 2 (advanced adaptive composition, Theorem 3.20
// of Dwork & Roth) to a per-round guarantee over k rounds with free
// parameter d > 0:
//
//	ε′ = √(2k·ln(1/d))·ε + k·ε·(e^ε − 1),  δ′ = k·δ + d.
func Compose(g Guarantee, k int, d float64) Guarantee {
	kf := float64(k)
	return Guarantee{
		Eps:   math.Sqrt(2*kf*math.Log(1/d))*g.Eps + kf*g.Eps*(math.Expm1(g.Eps)),
		Delta: kf*g.Delta + d,
	}
}

// DefaultD is the paper's choice of the free composition parameter
// (§6.4: "we set d in Theorem 2 to 10⁻⁵").
const DefaultD = 1e-5

// MaxRounds returns the largest k such that Compose(g, k, d) stays within
// target (ε′, δ′). Both ε′ and δ′ are monotonically increasing in k, so a
// binary search applies. Returns 0 if even one round exceeds the target,
// and at most 2^40, the largest k it checks, when the target is that lax.
func MaxRounds(g Guarantee, target Guarantee, d float64) int {
	within := func(k int) bool {
		c := Compose(g, k, d)
		return c.Eps <= target.Eps && c.Delta <= target.Delta
	}
	if !within(1) {
		return 0
	}
	lo, hi := 1, 2
	for within(hi) {
		lo = hi
		hi *= 2
		if hi > 1<<40 {
			return lo // effectively unbounded
		}
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if within(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Protocol selects which per-round theorem applies.
type Protocol int

const (
	// Conversation is the §4 conversation protocol.
	Conversation Protocol = iota
	// Dialing is the §5 dialing protocol.
	Dialing
)

// RoundGuarantee returns the protocol's single-round guarantee for the
// given noise parameters (Theorem 1 for conversations, §6.5 for dialing).
func (p Protocol) RoundGuarantee(params Params) Guarantee {
	if p == Dialing {
		return DialRound(params)
	}
	return ConvoRound(params)
}

// String returns the protocol name.
func (p Protocol) String() string {
	if p == Dialing {
		return "dialing"
	}
	return "conversation"
}

// BestScale sweeps the Laplace scale b for a fixed mean µ to maximize the
// number of rounds supportable at the target (ε′, δ′) — the methodology
// the paper uses to pick (µ, b) pairs for Figures 7 and 8 ("for each mean
// µ, we set b ... using a parameter sweep", §6.4). It returns the best b
// and the corresponding round count.
func BestScale(proto Protocol, mu float64, target Guarantee, d float64) (b float64, k int) {
	// δ ≤ target requires b ≲ µ/ln(1/δ); ε′ requires b large. Sweep a
	// geometric grid then refine linearly around the best coarse point.
	bestB, bestK := 0.0, -1
	grid := func(lo, hi, steps float64) {
		step := math.Pow(hi/lo, 1/steps)
		for bb := lo; bb <= hi; bb *= step {
			kk := MaxRounds(proto.RoundGuarantee(Params{Mu: mu, B: bb}), target, d)
			if kk > bestK {
				bestB, bestK = bb, kk
			}
		}
	}
	grid(mu/1000, mu, 200)
	// Refine around the coarse optimum.
	lo := bestB / 1.1
	hi := bestB * 1.1
	for bb := lo; bb <= hi; bb += (hi - lo) / 100 {
		kk := MaxRounds(proto.RoundGuarantee(Params{Mu: mu, B: bb}), target, d)
		if kk > bestK {
			bestB, bestK = bb, kk
		}
	}
	return bestB, bestK
}

// NoiseForRounds returns the smallest mean µ (and its best scale b) able
// to support k rounds at the target (ε′, δ′): the deployment-planning
// question of §6.4 ("how the mean noise µ required ... scales"). The
// search is a binary search on µ, using BestScale at each probe.
func NoiseForRounds(proto Protocol, k int, target Guarantee, d float64) (Params, error) {
	if k <= 0 {
		return Params{}, errors.New("privacy: k must be positive")
	}
	supports := func(mu float64) (float64, bool) {
		b, kk := BestScale(proto, mu, target, d)
		return b, kk >= k
	}
	loMu, hiMu := 10.0, 10.0
	var hiB float64
	for {
		b, ok := supports(hiMu)
		if ok {
			hiB = b
			break
		}
		loMu = hiMu
		hiMu *= 2
		if hiMu > 1e12 {
			return Params{}, errors.New("privacy: target unreachable")
		}
	}
	for hiMu/loMu > 1.001 {
		mid := math.Sqrt(loMu * hiMu)
		if b, ok := supports(mid); ok {
			hiMu, hiB = mid, b
		} else {
			loMu = mid
		}
	}
	return Params{Mu: hiMu, B: hiB}, nil
}

// PosteriorBelief applies Bayes' rule to bound an adversary's posterior
// belief in a suspicion with prior probability `prior`, after observing an
// ε-differentially-private system (§6.4): the likelihood ratio is at most
// e^ε, so
//
//	posterior ≤ e^ε·prior / (e^ε·prior + (1 − prior)).
func PosteriorBelief(prior, eps float64) float64 {
	w := math.Exp(eps) * prior
	return w / (w + (1 - prior))
}

// CurvePoint is one point of a Figure 7/8 privacy curve.
type CurvePoint struct {
	K        int     // number of rounds
	ExpEps   float64 // e^{ε′} — the paper plots this for readability
	DeltaPrm float64 // δ′
}

// Curve computes e^{ε′} and δ′ as functions of k for the given noise
// parameters, at geometrically spaced k between kMin and kMax — the series
// plotted in Figure 7 (conversation) and Figure 8 (dialing).
func Curve(proto Protocol, params Params, kMin, kMax, points int, d float64) []CurvePoint {
	g := proto.RoundGuarantee(params)
	out := make([]CurvePoint, 0, points)
	ratio := math.Pow(float64(kMax)/float64(kMin), 1/float64(points-1))
	kf := float64(kMin)
	for i := 0; i < points; i++ {
		k := int(math.Round(kf))
		c := Compose(g, k, d)
		out = append(out, CurvePoint{K: k, ExpEps: math.Exp(c.Eps), DeltaPrm: c.Delta})
		kf *= ratio
	}
	return out
}

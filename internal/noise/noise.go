// Package noise implements the truncated Laplace cover-traffic
// distribution used by Vuvuzela's servers: ⌈max(0, Laplace(µ, b))⌉
// (paper §4.2, Algorithm 2 step 2, and Theorem 1).
//
// Production sampling uses crypto/rand — the adversary must not be able to
// predict or reconstruct the noise — while tests and deterministic
// simulations can supply a seeded math/rand source.
package noise

import (
	"crypto/rand"
	"encoding/binary"
	"math"
)

// Source yields uniform random float64 values in [0, 1). *math/rand.Rand
// satisfies Source for deterministic tests.
type Source interface {
	// Float64 returns a uniform random value in [0, 1).
	Float64() float64
}

// cryptoSource draws uniform floats from crypto/rand.
type cryptoSource struct{}

func (cryptoSource) Float64() float64 {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand failure is unrecoverable: the system must not run
		// with predictable noise (it would void the privacy guarantee).
		panic("noise: crypto/rand failed: " + err.Error())
	}
	// 53 uniform bits → [0, 1).
	return float64(binary.BigEndian.Uint64(buf[:])>>11) / (1 << 53)
}

// Crypto returns a cryptographically secure Source.
func Crypto() Source { return cryptoSource{} }

// Laplace is a Laplace distribution with mean Mu and scale B. Its standard
// deviation is √2·B.
type Laplace struct {
	Mu float64 // mean (location)
	B  float64 // scale
}

// sampleRaw draws one (untruncated) Laplace variate using inverse-CDF
// sampling.
func (l Laplace) sampleRaw(src Source) float64 {
	// u uniform in (-1/2, 1/2]; X = µ − b·sign(u)·ln(1 − 2|u|).
	u := src.Float64() - 0.5
	if u == -0.5 {
		u = 0 // avoid ln(0) at the measure-zero endpoint
	}
	sign := 1.0
	if u < 0 {
		sign = -1.0
	}
	return l.Mu - l.B*sign*math.Log(1-2*math.Abs(u))
}

// Sample draws ⌈max(0, Laplace(µ, b))⌉ — the number of noise requests a
// server adds (Algorithm 2 step 2).
func (l Laplace) Sample(src Source) int {
	if src == nil {
		src = Crypto()
	}
	v := l.sampleRaw(src)
	if v <= 0 {
		return 0
	}
	return int(math.Ceil(v))
}

// Fixed is a degenerate "distribution" that always returns N. The paper's
// evaluation configures servers to add exactly µ noise "to not let noise
// affect the clarity of the graphs" (§8.1); Fixed reproduces that mode.
type Fixed struct {
	N int // the constant sample value
}

// Sample returns the fixed count.
func (f Fixed) Sample(Source) int { return f.N }

// Distribution is the interface shared by Laplace and Fixed, letting the
// protocol stack switch between real sampling and the paper's fixed-noise
// evaluation mode.
type Distribution interface {
	// Sample draws one noise count, clamped to be non-negative.
	Sample(Source) int
}

var (
	_ Distribution = Laplace{}
	_ Distribution = Fixed{}
)

//go:build ct

package box

// The constant-time gate's symmetric half, `make ct` beside x25519's
// Ladder and MulBatch: a dudect-style test (Reparaz, Balasch and
// Verbauwhede, "Dude, is my code constant time?", DATE 2017) of
// poly1305.Sum and of salsa.XORKeyStream on both its paths. It measures
// wall time, so it is build-tagged out of tier-1 and CI.

import (
	"crypto/rand"
	"math"
	mrand "math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"vuvuzela/internal/crypto/poly1305"
	"vuvuzela/internal/crypto/salsa"
)

const (
	// ctMeasurements is the run size: measurements per class pair, both
	// classes together, interleaved at random. The calls are short, so
	// it is five times x25519's.
	ctMeasurements = 100000
	// ctThreshold is dudect's: |t| above it is a leak.
	ctThreshold = 4.5
	// ctLeak is the positive control's leak, as a share of the median
	// call: that much extra work (spin) after the call, on one class.
	ctLeak = 0.02
	// ctLen is the length of the one random message every call of a run
	// takes: one kernel pass.
	ctLen = salsa.PassSize
)

// ctInput is one prepared call: its class and a one-time key.
type ctInput struct {
	class int
	key   [32]byte
}

func ctPoly1305(in *ctInput, msg, out []byte) {
	poly1305.Sum((*[poly1305.TagSize]byte)(out), msg, &in.key)
}

func ctSalsa(in *ctInput, msg, out []byte) {
	var nonce [salsa.NonceSize]byte
	salsa.XORKeyStream(out, msg, &in.key, &nonce, 0)
}

// TestConstantTime holds poly1305.Sum's timing to one distribution across
// a fixed (all-zero, so r = 0) versus random one-time key at a fixed
// message length, and salsa.XORKeyStream's across a fixed versus random
// key, on its AVX-512 kernel and on its block loop; and shows, for each,
// that an injected leak of ctLeak of a call is detected at this run size.
func TestConstantTime(t *testing.T) {
	keys := func(in *ctInput) {
		if in.class == 0 {
			in.key = [32]byte{}
		}
	}
	check := func(t *testing.T, name string, call func(*ctInput, []byte, []byte)) {
		tk, median := ctRun(call, keys, 0)
		spins := int(ctLeak * median.Seconds() / spinCost())
		tc, _ := ctRun(call, keys, spins)
		t.Logf("%s: median call %v; |t|: fixed vs random key %.1f, positive control (%d spins, %.0f%% of a call) %.1f",
			name, median, tk, spins, 100*ctLeak, tc)
		if tk > ctThreshold {
			t.Errorf("|t| above %.1f: %s's time depends on its key", ctThreshold, name)
		}
		if tc <= ctThreshold {
			t.Errorf("%s's positive control read |t| = %.1f ≤ %.1f: this run cannot detect a leak of %.0f%% of a call", name, tc, ctThreshold, 100*ctLeak)
		}
	}
	t.Run("poly1305", func(t *testing.T) { check(t, "poly1305.Sum", ctPoly1305) })
	for _, path := range []string{"avx512", "scalar"} {
		t.Run("salsa/"+path, func(t *testing.T) {
			if path == "avx512" && !salsa.AVX512 {
				t.Skip("no AVX-512 kernel: " + salsa.WhyNoAVX512)
			}
			if path == "scalar" {
				defer forceScalarSalsa()()
			}
			check(t, "salsa.XORKeyStream", ctSalsa)
		})
	}
}

// ctRun prepares ctMeasurements inputs, random keys with a random class
// each and class 0's then set by class, and times one call on each, over
// one random message, in order, adding leak spins after class 0's. It returns
// the largest |t| of Welch's test between the classes, over the raw times
// and the times cropped at several percentiles, and the median call.
func ctRun(call func(*ctInput, []byte, []byte), class func(*ctInput), leak int) (float64, time.Duration) {
	rng := mrand.New(mrand.NewPCG(mrand.Uint64(), mrand.Uint64()))
	in := make([]ctInput, ctMeasurements)
	for i := range in {
		in[i].class = rng.IntN(2)
		rand.Read(in[i].key[:])
		class(&in[i])
	}
	times := make([]float64, len(in))
	msg, out := make([]byte, ctLen), make([]byte, ctLen)
	rand.Read(msg)

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := range in {
		extra := 0
		if in[i].class == 0 {
			extra = leak
		}
		start := time.Now()
		call(&in[i], msg, out)
		spin(extra)
		times[i] = float64(time.Since(start).Nanoseconds())
	}

	sorted := slices.Clone(times)
	slices.Sort(sorted)
	worst := 0.0
	for _, p := range []float64{1, 0.99, 0.9, 0.75, 0.5} {
		limit := sorted[int(p*float64(len(sorted)-1))]
		worst = max(worst, math.Abs(welch(in, times, limit)))
	}
	return worst, time.Duration(sorted[len(sorted)/2])
}

// welch returns Welch's t between the two classes' times at most limit.
func welch(in []ctInput, times []float64, limit float64) float64 {
	var n, mean, m2 [2]float64
	for i, x := range times {
		if x > limit {
			continue
		}
		c := in[i].class
		n[c]++
		d := x - mean[c]
		mean[c] += d / n[c]
		m2[c] += d * (x - mean[c])
	}
	v0, v1 := m2[0]/(n[0]-1), m2[1]/(n[1]-1)
	return (mean[0] - mean[1]) / math.Sqrt(v0/n[0]+v1/n[1])
}

// spinSink keeps spin's chain of multiplies from being optimized away.
var spinSink uint64

// spin is the positive control's leak: n dependent multiply-adds.
func spin(n int) {
	x := spinSink
	for range n {
		x = x*6364136223846793005 + 1442695040888963407
	}
	spinSink = x
}

// spinCost is one spin step's time in seconds, measured.
func spinCost() float64 {
	const reps = 1 << 22
	start := time.Now()
	spin(reps)
	return time.Since(start).Seconds() / reps
}

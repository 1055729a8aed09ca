//go:build ct

package x25519

// The constant-time gate, `make ct`: a dudect-style test (Reparaz, Balasch
// and Verbauwhede, "Dude, is my code constant time?", DATE 2017) of Ladder
// and MulBatch, each on both its paths. It measures wall time, so it is
// build-tagged out of tier-1 and CI.

import (
	"crypto/rand"
	"math"
	mrand "math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

const (
	// ctMeasurements is the run size: measurements per class pair, both
	// classes together, interleaved at random.
	ctMeasurements = 20000
	// ctThreshold is dudect's: |t| above it is a leak.
	ctThreshold = 4.5
	// ctLeak is the positive control's leak, as a share of the median
	// call: that many seconds of extra field multiplies (feMul) after the
	// call, on one class.
	ctLeak = 0.02
)

// ctInput is one prepared call: the scalar and a group of 8 points for
// Ladder, or in points the 8 scalars of a MulBatch group.
type ctInput struct {
	class  int
	scalar [32]byte
	points [8][32]byte
}

// ctCall is the call each input is timed on.
type ctCall func(outs []*[32]byte, in *ctInput, pts []*[32]byte)

func ctLadder(outs []*[32]byte, in *ctInput, pts []*[32]byte) { Ladder(outs, &in.scalar, pts) }

// ctComb is a MulBatch group of 8 on table, one scalar per lane.
func ctComb(table *Table) ctCall {
	tables := [8]*Table{table, table, table, table, table, table, table, table}
	return func(outs []*[32]byte, _ *ctInput, scalars []*[32]byte) { MulBatch(outs, tables[:], scalars) }
}

// TestConstantTime holds Ladder's timing to one distribution across fixed
// versus random scalars and zero versus random points, and MulBatch's
// across fixed versus random scalars on a group of the generator's table
// and on one of a peer's, on the IFMA kernels and on the scalar code; and
// shows, for each of Ladder and MulBatch on each path, that an injected
// leak of ctLeak of a call is detected at this run size.
func TestConstantTime(t *testing.T) {
	for _, path := range []string{"ifma", "scalar"} {
		t.Run(path, func(t *testing.T) {
			if path == "ifma" && !IFMA {
				t.Skip("no IFMA kernel: " + WhyNoIFMA)
			}
			if path == "scalar" {
				saved := IFMA
				defer func() { IFMA = saved }()
				IFMA = false
			}
			var fixed [32]byte
			rand.Read(fixed[:])
			scalars := func(in *ctInput) {
				if in.class == 0 {
					in.scalar = fixed
				}
			}
			points := func(in *ctInput) {
				if in.class == 0 {
					in.points = [8][32]byte{}
				}
			}
			// The comb's 8 scalars, in points: all fixed in class 0.
			combScalars := func(in *ctInput) {
				if in.class == 0 {
					in.points = [8][32]byte{fixed, fixed, fixed, fixed, fixed, fixed, fixed, fixed}
				}
			}
			var pub [32]byte
			BaseTable().Mul(&pub, &[32]byte{7})
			peer, err := NewTable(&pub)
			if err != nil {
				t.Fatal(err)
			}

			ts, median := ctRun(ctLadder, scalars, 0)
			tp, _ := ctRun(ctLadder, points, 0)
			muls := int(ctLeak * median.Seconds() / feMulCost())
			tc, _ := ctRun(ctLadder, scalars, muls)
			t.Logf("Ladder: median call %v; |t|: fixed vs random scalar %.1f, zero vs random point %.1f, positive control (%d feMul, %.0f%% of a call) %.1f",
				median, ts, tp, muls, 100*ctLeak, tc)
			if ts > ctThreshold || tp > ctThreshold {
				t.Errorf("|t| above %.1f: Ladder's time depends on its input", ctThreshold)
			}
			if tc <= ctThreshold {
				t.Errorf("Ladder's positive control read |t| = %.1f ≤ %.1f: this run cannot detect a leak of %.0f%% of a call", tc, ctThreshold, 100*ctLeak)
			}

			tb, median := ctRun(ctComb(BaseTable()), combScalars, 0)
			tpeer, _ := ctRun(ctComb(peer), combScalars, 0)
			muls = int(ctLeak * median.Seconds() / feMulCost())
			tc, _ = ctRun(ctComb(BaseTable()), combScalars, muls)
			t.Logf("MulBatch: median call %v; |t|: fixed vs random scalars, base table %.1f, peer table %.1f, positive control (%d feMul, %.0f%% of a call) %.1f",
				median, tb, tpeer, muls, 100*ctLeak, tc)
			if tb > ctThreshold || tpeer > ctThreshold {
				t.Errorf("|t| above %.1f: MulBatch's time depends on its scalars", ctThreshold)
			}
			if tc <= ctThreshold {
				t.Errorf("MulBatch's positive control read |t| = %.1f ≤ %.1f: this run cannot detect a leak of %.0f%% of a call", tc, ctThreshold, 100*ctLeak)
			}
		})
	}
}

// ctRun prepares ctMeasurements inputs, random scalars and points with a
// random class each and class 0's then set by class, and times one call
// on each, in order, adding leak field multiplies after class 0's.
// It returns the largest |t| of Welch's test between the classes, over
// the raw times and the times cropped at several percentiles, and the
// median call.
func ctRun(call ctCall, class func(*ctInput), leak int) (float64, time.Duration) {
	rng := mrand.New(mrand.NewPCG(mrand.Uint64(), mrand.Uint64()))
	in := make([]ctInput, ctMeasurements)
	for i := range in {
		in[i].class = rng.IntN(2)
		rand.Read(in[i].scalar[:])
		for j := range in[i].points {
			rand.Read(in[i].points[j][:])
		}
		class(&in[i])
	}
	times := make([]float64, len(in))
	var out [8][32]byte
	var outs, pts [8]*[32]byte
	for j := range outs {
		outs[j] = &out[j]
	}
	a, b := fieldElement{1, 2, 3, 4, 5}, fieldElement{5, 4, 3, 2, 1}

	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := range in {
		for j := range pts {
			pts[j] = &in[i].points[j]
		}
		extra := 0
		if in[i].class == 0 {
			extra = leak
		}
		start := time.Now()
		call(outs[:], &in[i], pts[:])
		for k := 0; k < extra; k++ {
			feMul(&a, &a, &b)
		}
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

// feMulCost is one feMul's time in seconds, measured.
func feMulCost() float64 {
	a, b := fieldElement{1, 2, 3, 4, 5}, fieldElement{5, 4, 3, 2, 1}
	const reps = 1 << 20
	start := time.Now()
	for k := 0; k < reps; k++ {
		feMul(&a, &a, &b)
	}
	return time.Since(start).Seconds() / reps
}

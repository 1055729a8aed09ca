package eval

import (
	"math"
	"math/rand"
	"testing"

	"vuvuzela/internal/noise"
	"vuvuzela/internal/privacy"
)

// TestNoNoiseAttackSucceeds is the §4.2 result against the real stack:
// with no cover noise, the compromised last server's histogram reads
// the conversation directly — M2 is 1 exactly when Alice and Bob talk —
// and the distinguisher wins every round.
func TestNoNoiseAttackSucceeds(t *testing.T) {
	exp := Experiment{Rounds: 6}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedTalking != 0 || res.FailedIdle != 0 {
		t.Fatalf("failed rounds: talking %d, idle %d", res.FailedTalking, res.FailedIdle)
	}
	for _, o := range res.Talking {
		if o.M2 != 1 || o.M1 != 0 {
			t.Fatalf("talking round %d: m1=%d m2=%d, want 0/1", o.Round, o.M1, o.M2)
		}
	}
	for _, o := range res.Idle {
		if o.M2 != 0 || o.M1 != 2 {
			t.Fatalf("idle round %d: m1=%d m2=%d, want 2/0", o.Round, o.M1, o.M2)
		}
	}
	if res.Advantage != 1.0 || res.Threshold != 1 {
		t.Fatalf("advantage %.2f at threshold %d, want 1.00 at 1", res.Advantage, res.Threshold)
	}
}

// TestBaselineAdvantageWithinPrivacyBound is the acceptance assertion:
// the empirical advantage of the strongest adversary against the real
// deployment must be consistent with the per-round (ε,δ) guarantee
// internal/privacy computes for the configured noise. A violation
// beyond sampling error means the deployment leaks more than the
// accounting claims.
func TestBaselineAdvantageWithinPrivacyBound(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical experiment, run without -short")
	}
	const rounds = 120
	exp := Experiment{
		Rounds:   rounds,
		Noise:    noise.Laplace{Mu: 40, B: 10},
		NoiseSrc: rand.New(rand.NewSource(3)),
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedTalking != 0 || res.FailedIdle != 0 {
		t.Fatalf("failed rounds: talking %d, idle %d", res.FailedTalking, res.FailedIdle)
	}
	g, ok := exp.Guarantee()
	if !ok {
		t.Fatal("no guarantee for Laplace noise")
	}
	want := privacy.ConvoRound(privacy.Params{Mu: 40, B: 10})
	if g != want {
		t.Fatalf("guarantee %+v, want privacy.ConvoRound's %+v", g, want)
	}
	bound, ok := exp.AdvantageBound()
	if !ok {
		t.Fatal("no advantage bound for Laplace noise")
	}
	if wantBound := math.Expm1(want.Eps) + want.Delta; bound != wantBound {
		t.Fatalf("bound %.4f, want e^eps-1+delta = %.4f", bound, wantBound)
	}
	// Two-sample empirical advantage has sampling noise ~1/sqrt(rounds)
	// per world; 2/sqrt(rounds) is a generous allowance that still
	// fails loudly if the noise path breaks (advantage -> 1.0).
	slack := 2 / math.Sqrt(rounds)
	if res.Advantage > bound+slack {
		t.Fatalf("empirical advantage %.3f exceeds (eps,delta) bound %.3f + slack %.3f — deployment leaks more than privacy accounting claims",
			res.Advantage, bound, slack)
	}
	if res.Advantage >= 1.0 {
		t.Fatalf("advantage 1.0: noise is not reaching the histogram")
	}
	t.Logf("advantage %.3f at threshold %d (bound %.3f, eps=%.3f delta=%.4f)",
		res.Advantage, res.Threshold, bound, g.Eps, g.Delta)
}

// TestWireObserverSeesNoSignal measures the THREAT_MODEL.md §2 claim
// that the wire gives a network observer nothing: with fixed-size
// onions and one request per client per round, the tapped entry→chain
// leg carries byte-identical traffic whether or not Alice and Bob are
// talking.
func TestWireObserverSeesNoSignal(t *testing.T) {
	exp := Experiment{
		Rounds:    5,
		Adversary: WireObserver,
		Noise:     noise.Fixed{N: 6},
	}
	res, err := exp.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedTalking != 0 || res.FailedIdle != 0 {
		t.Fatalf("failed rounds: talking %d, idle %d", res.FailedTalking, res.FailedIdle)
	}
	if len(res.Talking) != len(res.Idle) {
		t.Fatalf("world sizes differ: %d vs %d", len(res.Talking), len(res.Idle))
	}
	for i := range res.Talking {
		tk, id := res.Talking[i], res.Idle[i]
		if tk.Records == 0 || tk.Bytes == 0 {
			t.Fatalf("round %d: wire observer saw no traffic", tk.Round)
		}
		if tk.Records != id.Records || tk.Bytes != id.Bytes {
			t.Fatalf("round %d: wire trace differs between worlds: %d/%d records, %d/%d bytes — traffic shape leaks",
				tk.Round, tk.Records, id.Records, tk.Bytes, id.Bytes)
		}
	}
	if res.Advantage != 0 {
		t.Fatalf("wire observer advantage %.3f, want 0", res.Advantage)
	}
}

// TestScenarioMatrix runs every fault scenario under deterministic
// noise and asserts the adversary's view stays exactly the healthy
// baseline's: same M1/M2 arithmetic, no failed rounds. Churn, restarts,
// and mixed load must not add observable variables.
func TestScenarioMatrix(t *testing.T) {
	// Fixed{N:6}: n1=6 singles, n2=6 -> 3 noise pairs, every round.
	const n1, pairs = 6, 3
	cases := []struct {
		name string
		exp  Experiment
		// kicked is how many cover clients each round may be missing
		// (a kicked churn client misses the round it reconnects in).
		kicked int
	}{
		{"churn", Experiment{Rounds: 5, IdleClients: 3, Noise: noise.Fixed{N: 6}, Scenario: ClientChurn()}, 1},
		{"restart", Experiment{Rounds: 6, Frontends: 2, IdleClients: 2, Noise: noise.Fixed{N: 6}, Scenario: MidRunRestart()}, 0},
		{"mixed", Experiment{Rounds: 4, Noise: noise.Fixed{N: 6}, Scenario: MixedLoad(2)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.exp.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.FailedTalking != 0 || res.FailedIdle != 0 {
				t.Fatalf("failed rounds: talking %d, idle %d", res.FailedTalking, res.FailedIdle)
			}
			if len(res.Talking) != tc.exp.Rounds || len(res.Idle) != tc.exp.Rounds {
				t.Fatalf("observed %d/%d rounds, want %d", len(res.Talking), len(res.Idle), tc.exp.Rounds)
			}
			idleCover := tc.exp.IdleClients
			for _, o := range res.Talking {
				if o.M2 != pairs+1 {
					t.Fatalf("talking round %d: m2=%d, want %d noise pairs + 1 real", o.Round, o.M2, pairs)
				}
				if o.M1 > n1+idleCover || o.M1 < n1+idleCover-tc.kicked {
					t.Fatalf("talking round %d: m1=%d, want %d..%d", o.Round, o.M1, n1+idleCover-tc.kicked, n1+idleCover)
				}
			}
			for _, o := range res.Idle {
				if o.M2 != pairs {
					t.Fatalf("idle round %d: m2=%d, want %d noise pairs", o.Round, o.M2, pairs)
				}
				if o.M1 > n1+2+idleCover || o.M1 < n1+2+idleCover-tc.kicked {
					t.Fatalf("idle round %d: m1=%d, want %d..%d", o.Round, o.M1, n1+2+idleCover-tc.kicked, n1+2+idleCover)
				}
			}
			// Deterministic noise means the real pair is fully visible —
			// the matrix checks the *scenarios* don't distort the view,
			// not that Fixed noise hides anything.
			if res.Advantage != 1.0 {
				t.Fatalf("advantage %.2f under deterministic noise, want 1.0", res.Advantage)
			}
		})
	}
}

// TestAdvantageHelpers pins the distinguisher arithmetic.
func TestAdvantageHelpers(t *testing.T) {
	talking := []Observation{{M2: 3}, {M2: 4}, {M2: 3}, {M2: 5}}
	idle := []Observation{{M2: 2}, {M2: 3}, {M2: 2}, {M2: 2}}
	if got := Advantage(FeatureM2, 3, talking, idle); got != 0.75 {
		t.Fatalf("advantage at threshold 3: %.2f, want 0.75", got)
	}
	adv, thr := BestAdvantage(FeatureM2, talking, idle)
	if adv != 0.75 || thr != 3 {
		t.Fatalf("best advantage %.2f at %d, want 0.75 at 3", adv, thr)
	}
	if got := Advantage(FeatureM2, 0, talking, idle); got != 0 {
		t.Fatalf("advantage at threshold 0: %.2f, want 0 (both always guess)", got)
	}
	if got := Advantage(FeatureM2, 3, nil, idle); got != 0 {
		t.Fatalf("advantage with empty world: %.2f, want 0", got)
	}
	o := Observation{M1: 7, M2: 3, Bytes: 1024}
	if FeatureM2(o) != 3 || FeatureBytes(o) != 1024 {
		t.Fatal("feature accessors misread the observation")
	}
}

// TestPositionNames pins the report labels and default features.
func TestPositionNames(t *testing.T) {
	if CompromisedServers.String() != "compromised-servers" || WireObserver.String() != "wire-observer" {
		t.Fatal("position names changed; BENCH_privacy.json consumers key on them")
	}
	if Position(99).String() != "unknown" {
		t.Fatal("unknown position must not panic")
	}
	o := Observation{M2: 2, Bytes: 5}
	if CompromisedServers.Feature()(o) != 2 || WireObserver.Feature()(o) != 5 {
		t.Fatal("position default features misassigned")
	}
}

// TestExperimentValidation pins the config errors.
func TestExperimentValidation(t *testing.T) {
	if _, err := (Experiment{}).Run(); err == nil {
		t.Fatal("zero rounds must error")
	}
	if _, err := (Experiment{Rounds: 1, Servers: 1}).Run(); err == nil {
		t.Fatal("single-server chain must error (no honest middle exists)")
	}
}

// TestGuaranteeOnlyForLaplace pins that the (ε,δ) accounting applies
// exactly when the noise is the production Laplace.
func TestGuaranteeOnlyForLaplace(t *testing.T) {
	if _, ok := (Experiment{Noise: noise.Fixed{N: 5}}).Guarantee(); ok {
		t.Fatal("fixed noise has no (eps,delta) accounting")
	}
	if _, ok := (Experiment{}).Guarantee(); ok {
		t.Fatal("no noise has no (eps,delta) accounting")
	}
	if _, ok := (Experiment{Noise: noise.Fixed{N: 5}}).AdvantageBound(); ok {
		t.Fatal("fixed noise has no advantage bound")
	}
}

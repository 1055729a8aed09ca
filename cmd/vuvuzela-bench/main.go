// vuvuzela-bench regenerates every table and figure of the paper's
// evaluation (§6 Figures 6–8, §8 Figures 9–11, and the inline §8.2/§8.3
// numbers). Analytic figures are exact; performance figures print both a
// paper-scale prediction from the calibrated cost model and, with
// -measure, real scaled-down rounds run through the actual protocol
// stack on this machine (each at the head of a fresh sim.ChainNet;
// `make figures-smoke` is the CI-sized run). `attack` and `privacy` are
// both internal/eval: `attack` is the §4.2 discard attack on
// eval.Experiment's default topology, with and without noise; `privacy`
// scores it across fault
// scenarios and adversary positions and, with -json, regenerates
// BENCH_privacy.json (`make eval-smoke` is its -quick form).
//
// It is the reproduction of the paper's figures, not the repository's
// performance benchmark: round latency, throughput and the per-layer
// timings (record layer, handshake, shard RPC, frontend collection, onion
// unwrap) are bench/ — `bash bench/run.sh`, BENCHMARK.json.
//
// Usage:
//
//	vuvuzela-bench [-measure] [-scale N] fig6|fig7|fig8|fig9|fig10|fig11|posterior|costs|bandwidth|buckets|attack|all
//	vuvuzela-bench [-quick] [-json FILE] privacy
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"vuvuzela/internal/eval"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/privacy"
	"vuvuzela/internal/sim"
)

var (
	measure = flag.Bool("measure", false, "also run real scaled-down rounds on this machine")
	scale   = flag.Int("scale", 500, "scale divisor for measured runs (users and µ divided by this)")
	jsonOut = flag.String("json", "", "privacy: write the measured points to this file (BENCH_privacy.json)")
	quick   = flag.Bool("quick", false, "privacy: smoke mode with minimal rounds (CI)")
)

func main() {
	flag.Parse()
	cmds := flag.Args()
	if len(cmds) == 0 {
		usage()
	}
	if *scale < 1 {
		fmt.Fprintf(os.Stderr, "vuvuzela-bench: -scale %d: the divisor must be at least 1\n", *scale)
		os.Exit(2)
	}
	for _, cmd := range cmds {
		switch cmd {
		case "fig6":
			fig6()
		case "fig7":
			fig7()
		case "fig8":
			fig8()
		case "fig9":
			fig9()
		case "fig10":
			fig10()
		case "fig11":
			fig11()
		case "posterior":
			posterior()
		case "costs":
			costs()
		case "bandwidth":
			bandwidth()
		case "buckets":
			buckets()
		case "attack":
			attack()
		case "privacy":
			privacyEval()
		case "all":
			fig6()
			fig7()
			fig8()
			fig9()
			fig10()
			fig11()
			posterior()
			costs()
			bandwidth()
			buckets()
			attack()
			privacyEval()
		default:
			usage()
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: vuvuzela-bench [-measure] [-scale N] fig6|fig7|fig8|fig9|fig10|fig11|posterior|costs|bandwidth|buckets|attack|all\n       vuvuzela-bench [-quick] [-json FILE] privacy")
	os.Exit(2)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fig6() {
	header("Figure 6: sensitivity of (m1, m2) to Alice's action vs cover story")
	fmt.Printf("%-24s", "cover story \\ real")
	for _, col := range privacy.Figure6Cols {
		fmt.Printf("%-22s", col)
	}
	fmt.Println()
	table := privacy.SensitivityTable()
	for i, row := range table {
		fmt.Printf("%-24s", privacy.Figure6Rows[i])
		for _, d := range row {
			fmt.Printf("%-22s", fmt.Sprintf("%+d,%+d", d.M1, d.M2))
		}
		fmt.Println()
	}
	m1, m2 := privacy.MaxSensitivity()
	fmt.Printf("max |Δm1| = %d, max |Δm2| = %d (paper: 2 and 1)\n", m1, m2)
}

func printCurves(proto privacy.Protocol, params []privacy.Params, kMin, kMax int) {
	for _, p := range params {
		fmt.Printf("µ=%.0f b=%.0f:\n", p.Mu, p.B)
		fmt.Printf("  %12s %10s %12s\n", "k", "e^ε'", "δ'")
		for _, pt := range privacy.Curve(proto, p, kMin, kMax, 9, privacy.DefaultD) {
			fmt.Printf("  %12d %10.3f %12.3e\n", pt.K, pt.ExpEps, pt.DeltaPrm)
		}
		target := privacy.Guarantee{Eps: privacy.Ln2, Delta: 1e-4}
		k := privacy.MaxRounds(proto.RoundGuarantee(p), target, privacy.DefaultD)
		fmt.Printf("  supports %d rounds at ε'=ln2, δ'=1e-4\n", k)
	}
}

func fig7() {
	header("Figure 7: conversation privacy (e^ε', δ') vs rounds k")
	printCurves(privacy.Conversation, []privacy.Params{
		{Mu: 150000, B: 7300},
		{Mu: 300000, B: 13800},
		{Mu: 450000, B: 20000},
	}, 10000, 1000000)
	fmt.Println("paper: 70,000 / 250,000 / 500,000 rounds respectively")
}

func fig8() {
	header("Figure 8: dialing privacy (e^ε', δ') vs rounds k")
	printCurves(privacy.Dialing, []privacy.Params{
		{Mu: 8000, B: 500},
		{Mu: 13000, B: 770}, // paper prints b=7,700 — see vuvuzela.DefaultDialNoise
		{Mu: 20000, B: 1130},
	}, 1000, 16000)
	fmt.Println("paper: ≈1,200 / 3,500 / 8,000 dialing rounds respectively")
}

func fig9() {
	header("Figure 9: conversation latency vs users (3 servers)")
	model := sim.PaperModel()
	fmt.Println("paper-testbed model (340K DH ops/s/server):")
	fmt.Printf("  %10s", "users")
	for _, mu := range sim.DefaultFigure9Mus {
		fmt.Printf("  µ=%-8.0f", mu)
	}
	fmt.Println()
	series := sim.Figure9(model, sim.DefaultFigure9Users, sim.DefaultFigure9Mus, 3)
	for i, u := range sim.DefaultFigure9Users {
		fmt.Printf("  %10d", u)
		for _, mu := range sim.DefaultFigure9Mus {
			fmt.Printf("  %8.1fs ", series[mu][i].Latency.Seconds())
		}
		fmt.Println()
	}
	fmt.Printf("  throughput: %.0f msgs/s @1M (paper 68,000), %.0f @2M (paper 84,000)\n",
		model.ConvoThroughput(1000000, 300000, 3), model.ConvoThroughput(2000000, 300000, 3))
	fmt.Println("  paper anchors: 20s @10 users, 37s @1M, 55s @2M (µ=300K)")

	if *measure {
		fmt.Printf("measured on this machine (scale 1/%d):\n", *scale)
		for _, u := range []int{10, 1000000 / *scale, 2000000 / *scale} {
			pt, err := sim.MeasureConvoRound(u, 300000 / *scale, 3)
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			fmt.Printf("  %8d users, µ=%d: %10v (%.0f msgs/s)\n", pt.Users, pt.Mu, pt.Latency.Round(time.Millisecond), pt.Throughput())
		}
	}
}

func fig10() {
	header("Figure 10: dialing latency vs users (µd=13K, 5% dialing, convo concurrent)")
	model := sim.PaperModel()
	for _, pt := range sim.Figure10(model, sim.DefaultFigure9Users, 13000, 1, 3) {
		fmt.Printf("  %10d users: %6.1fs\n", pt.Users, pt.Latency.Seconds())
	}
	fmt.Println("  paper anchors: 13s @10 users, 50s @2M")
	if *measure {
		fmt.Printf("measured on this machine (scale 1/%d):\n", *scale)
		for _, u := range []int{10, 1000000 / *scale} {
			pt, err := sim.MeasureDialRound(u, 0.05, 13000 / *scale, 1, 3)
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			fmt.Printf("  %8d users: %10v\n", pt.Users, pt.Latency.Round(time.Millisecond))
		}
	}
}

func fig11() {
	header("Figure 11: conversation latency vs chain length (1M users, µ=300K)")
	model := sim.PaperModel()
	for _, pt := range sim.Figure11(model, 1000000, 300000, 6) {
		fmt.Printf("  %d servers: %6.1fs\n", pt.Servers, pt.Latency.Seconds())
	}
	fmt.Println("  paper: ≈quadratic growth, ≈37s @3 servers, ≈140s @6")
	if *measure {
		fmt.Printf("measured on this machine (scale 1/%d, %d users):\n", *scale, 1000000 / *scale)
		for s := 1; s <= 4; s++ {
			pt, err := sim.MeasureConvoRound(1000000 / *scale, 300000 / *scale, s)
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			fmt.Printf("  %d servers: %10v\n", s, pt.Latency.Round(time.Millisecond))
		}
	}
}

func posterior() {
	header("§6.4: adversary posterior beliefs (Bayes bound)")
	cases := []struct {
		prior float64
		eps   float64
		label string
	}{
		{0.5, math.Log(2), "prior 50%, ε=ln2"},
		{0.5, math.Log(3), "prior 50%, ε=ln3"},
		{0.01, math.Log(3), "prior 1%,  ε=ln3"},
	}
	for _, c := range cases {
		fmt.Printf("  %-20s → posterior %.1f%%\n", c.label, 100*privacy.PosteriorBelief(c.prior, c.eps))
	}
	fmt.Println("  paper: 67%, 75%, ≈3%")
}

func costs() {
	header("§8.2: dominant costs")
	model := sim.PaperModel()
	lb := model.CryptoLowerBound(2000000, 300000, 3)
	full := model.ConvoLatency(2000000, 300000, 3)
	fmt.Printf("  crypto lower bound @2M users: %.1fs (paper derives ≈28s)\n", lb.Seconds())
	fmt.Printf("  full protocol model: %.1fs — %.2fx the lower bound (paper: within 2x)\n",
		full.Seconds(), full.Seconds()/lb.Seconds())
	fmt.Println("  measuring this machine's X25519 throughput...")
	rate := sim.MeasureDHThroughput(time.Second)
	fmt.Printf("  this machine: %.0f DH ops/s (paper's 36-core c4.8xlarge: ≈340,000)\n", rate)
	local := sim.PaperModel()
	local.DHOpsPerSec = rate
	fmt.Printf("  projected 1M-user round on a chain of machines like this one: %.1fs\n",
		local.ConvoLatency(1000000, 300000, 3).Seconds())
}

func bandwidth() {
	header("§8.3 and §1: bandwidth accounting")
	up, down := sim.ConvoClientBytesPerRound(3)
	fmt.Printf("  convo client: %d B up + %d B down per round (paper: negligible)\n", up, down)
	bkt := sim.DialBucketBytes(1000000, 0.05, 13000, 1, 3)
	fmt.Printf("  dialing bucket @1M users: %.2f MB per round (paper ≈7 MB)\n", float64(bkt)/1e6)
	rate := sim.DialClientBytesPerSec(1000000, 0.05, 13000, 1, 3, 600)
	fmt.Printf("  dialing client download: %.1f KB/s at 10-minute rounds (paper ≈12 KB/s)\n", rate/1000)
	model := sim.PaperModel()
	fmt.Printf("  busiest server: %.0f MB/s @1M users (paper ≈166 MB/s)\n",
		model.ServerBytesPerSec(1000000, 300000, 3)/1e6)
	fmt.Printf("  client monthly total: %.1f GB (paper ≈30 GB)\n",
		sim.MonthlyClientBytes(3, 37, 1000000, 0.05, 13000, 1, 600)/1e9)
}

func buckets() {
	header("§5.4: invitation dead-drop count tradeoff (1M users, 5% dialing, µd=13K)")
	fmt.Printf("  %4s %16s %22s %12s\n", "m", "client DL/round", "server noise (invites)", "load factor")
	for _, p := range sim.BucketTradeoff(1000000, 0.05, 13000, 3, []uint32{1, 2, 3, 4, 8, 16}) {
		fmt.Printf("  %4d %13.2f MB %22d %11.1fx\n",
			p.M, float64(p.ClientBytes)/1e6, p.ServerNoiseInvitations, p.LoadFactor)
	}
	fmt.Println("  paper: m = n·f/µ balances the two; at the optimum each bucket")
	fmt.Println("  holds roughly equal real and (per-server) noise invitations")
}

// privacyPoint is one scenario's measured distinguishing advantage for
// the BENCH_privacy.json baseline.
type privacyPoint struct {
	Name         string  `json:"name"`
	Adversary    string  `json:"adversary"`
	Rounds       int     `json:"rounds"`
	FailedRounds int     `json:"failed_rounds"`
	Advantage    float64 `json:"advantage"`
	Threshold    int     `json:"threshold"`
}

// privacyBaseline is the full -json output shape of the traffic-analysis
// evaluation (BENCH_privacy.json): the noise parameters and their (ε,δ)
// accounting, the advantage bound they imply, and the empirical
// advantage per scenario.
type privacyBaseline struct {
	Mu             float64        `json:"mu"`
	B              float64        `json:"b"`
	Eps            float64        `json:"eps"`
	Delta          float64        `json:"delta"`
	AdvantageBound float64        `json:"advantage_bound"`
	RoundsPerWorld int            `json:"rounds_per_world"`
	Scenarios      []privacyPoint `json:"scenarios"`
}

// privacyEval runs the internal/eval adversarial harness against full
// in-memory deployments: the §4.2 compromised-server distinguisher and a
// wire observer, each across fault scenarios (client churn, mid-run
// restarts, mixed dial+convo load), scored as empirical
// distinguishing advantage against the (ε,δ) bound internal/privacy
// derives for the configured noise. Every number is a measurement of the
// leakage THREAT_MODEL.md claims, not a restatement of it. -quick
// shrinks the rounds to a CI smoke, -json writes BENCH_privacy.json.
func privacyEval() {
	header("traffic analysis: empirical adversary advantage vs (ε,δ) accounting")
	lap := noise.Laplace{Mu: 40, B: 10}
	rounds := 40
	if *quick {
		rounds = 6
	}
	scenarios := []struct {
		name      string
		adversary eval.Position
		exp       eval.Experiment
	}{
		{"baseline", eval.CompromisedServers, eval.Experiment{Scenario: eval.Baseline()}},
		{"churn", eval.CompromisedServers, eval.Experiment{IdleClients: 3, Scenario: eval.ClientChurn()}},
		{"restart", eval.CompromisedServers, eval.Experiment{Frontends: 2, IdleClients: 2, Scenario: eval.MidRunRestart()}},
		{"mixed", eval.CompromisedServers, eval.Experiment{Scenario: eval.MixedLoad(2)}},
		{"wire-observer", eval.WireObserver, eval.Experiment{Scenario: eval.Baseline()}},
	}

	g, _ := eval.Experiment{Noise: lap}.Guarantee()
	bound, _ := eval.Experiment{Noise: lap}.AdvantageBound()
	base := privacyBaseline{
		Mu: lap.Mu, B: lap.B, Eps: g.Eps, Delta: g.Delta,
		AdvantageBound: bound, RoundsPerWorld: rounds,
	}
	fmt.Printf("  Laplace(µ=%.0f, b=%.0f): ε=%.3f δ=%.4f per round → advantage bound %.3f\n",
		lap.Mu, lap.B, g.Eps, g.Delta, bound)
	fmt.Printf("  %d rounds per world, two-world distinguisher per scenario:\n", rounds)
	for i, sc := range scenarios {
		exp := sc.exp
		exp.Rounds = rounds
		exp.Noise = lap
		exp.NoiseSrc = rand.New(rand.NewSource(int64(100 + i)))
		exp.Adversary = sc.adversary
		res, err := exp.Run()
		if err != nil {
			fmt.Println("  error:", err)
			return
		}
		failed := res.FailedTalking + res.FailedIdle
		within := "within bound"
		if res.Advantage > bound {
			within = fmt.Sprintf("EXCEEDS bound %.3f (sampling noise ~%.3f at this depth)", bound, 2/math.Sqrt(float64(rounds)))
		}
		fmt.Printf("  %-14s %-19s advantage %.3f (threshold %d, %d failed rounds) — %s\n",
			sc.name, sc.adversary, res.Advantage, res.Threshold, failed, within)
		base.Scenarios = append(base.Scenarios, privacyPoint{
			Name: sc.name, Adversary: sc.adversary.String(), Rounds: rounds,
			FailedRounds: failed, Advantage: res.Advantage, Threshold: res.Threshold,
		})
	}
	fmt.Println("  (the compromised-server series measures the §4.2 discard attack")
	fmt.Println("  against real deployments; the wire observer measures traffic-shape")
	fmt.Println("  leakage on the tapped entry→chain leg — see docs/EVAL.md)")

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fmt.Println("  json error:", err)
			return
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Println("  json error:", err)
			return
		}
		fmt.Printf("  wrote %s\n", *jsonOut)
	}
}

func attack() {
	header("§4.2: discard attack — adversary advantage with and without noise")
	// eval.Experiment's defaults are the attack's topology: 3 servers, the
	// target pair as the only clients, noise from the honest middle server.
	res, err := eval.Experiment{Rounds: 60}.Run()
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	fmt.Printf("  mixnet WITHOUT noise: advantage %.2f (threshold m2 ≥ %d) — broken\n", res.Advantage, res.Threshold)

	res, err = eval.Experiment{
		Rounds:   60,
		Noise:    noise.Laplace{Mu: 60, B: 15},
		NoiseSrc: rand.New(rand.NewSource(1)),
	}.Run()
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	eps := 4.0 / 15
	fmt.Printf("  mixnet WITH Laplace(60,15) noise from one honest server:\n")
	fmt.Printf("    advantage %.2f (threshold m2 ≥ %d); per-round ε=%.2f bounds it near e^ε−1=%.2f\n",
		res.Advantage, res.Threshold, eps, math.Exp(eps)-1)
	fmt.Println("  (production noise µ=300K makes the per-round leak ε=0.00029)")
}

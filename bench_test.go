// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus ablation benches for noise sampling and the
// crypto worker pool. The analytic figures (6–8) benchmark their exact
// regeneration; the performance figures (9–11) run real rounds through
// the full protocol stack at laptop scale (users and noise scaled down
// ~500× from the paper's testbed; internal/sim's CostModel maps them back
// to paper scale).
//
// The same series, printed in paper-comparable form, come from
// `go run ./cmd/vuvuzela-bench all`.
package vuvuzela

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/eval"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/privacy"
	"vuvuzela/internal/sim"
)

// BenchmarkFig6Sensitivity regenerates the Figure 6 sensitivity table.
func BenchmarkFig6Sensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table := privacy.SensitivityTable()
		if len(table) != 5 {
			b.Fatal("bad table")
		}
		m1, m2 := privacy.MaxSensitivity()
		if m1 != 2 || m2 != 1 {
			b.Fatal("sensitivity bound violated")
		}
	}
}

// BenchmarkFig7ConvoPrivacy regenerates the three conversation privacy
// curves of Figure 7.
func BenchmarkFig7ConvoPrivacy(b *testing.B) {
	params := []privacy.Params{
		{Mu: 150000, B: 7300},
		{Mu: 300000, B: 13800},
		{Mu: 450000, B: 20000},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			pts := privacy.Curve(privacy.Conversation, p, 10000, 1000000, 32, privacy.DefaultD)
			if len(pts) != 32 {
				b.Fatal("bad curve")
			}
		}
	}
}

// BenchmarkFig8DialPrivacy regenerates the three dialing privacy curves
// of Figure 8.
func BenchmarkFig8DialPrivacy(b *testing.B) {
	params := []privacy.Params{
		{Mu: 8000, B: 500},
		{Mu: 13000, B: 770},
		{Mu: 20000, B: 1130},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range params {
			pts := privacy.Curve(privacy.Dialing, p, 1000, 16000, 32, privacy.DefaultD)
			if len(pts) != 32 {
				b.Fatal("bad curve")
			}
		}
	}
}

// BenchmarkFig9ConvoLatency measures real conversation rounds at scaled
// user counts (Figure 9's x-axis ÷ 500), full stack: onion unwrapping,
// noise generation and wrapping, shuffling, dead-drop exchange, reply
// sealing.
func BenchmarkFig9ConvoLatency(b *testing.B) {
	const scaledMu = 600 // 300,000 / 500
	for _, users := range []int{10, 1000, 2000, 4000} {
		b.Run(fmt.Sprintf("users=%d/mu=%d", users, scaledMu), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := sim.MeasureConvoRound(users, scaledMu, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.Latency.Seconds(), "s/round")
				b.ReportMetric(pt.Throughput(), "msgs/s")
			}
		})
	}
}

// BenchmarkFig10DialLatency measures real dialing rounds (5% of users
// dialing, per-bucket noise, bucket publication) at scaled user counts.
func BenchmarkFig10DialLatency(b *testing.B) {
	const scaledMuD = 26 // 13,000 / 500
	for _, users := range []int{10, 1000, 4000} {
		b.Run(fmt.Sprintf("users=%d", users), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := sim.MeasureDialRound(users, 0.05, scaledMuD, 1, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.Latency.Seconds(), "s/round")
			}
		})
	}
}

// BenchmarkFig11ChainLength measures real rounds across chain lengths 1–4
// (Figure 11 goes to 6; the quadratic shape is visible by 4 and the CI
// budget appreciates the cut — the model covers the full range).
func BenchmarkFig11ChainLength(b *testing.B) {
	for servers := 1; servers <= 4; servers++ {
		b.Run(fmt.Sprintf("servers=%d", servers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := sim.MeasureConvoRound(1000, 600, servers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.Latency.Seconds(), "s/round")
			}
		})
	}
}

// BenchmarkPipelinedRounds compares serial round execution (window=1)
// against overlapped rounds (window≥2) through a full sim.ChainNet —
// coordinator, served chain, loopback clients — the cross-round half of
// the scalability tentpole, and the one ConvoWindow > 1 timing in the repo.
// Each timed run includes connecting its clients, as RunRounds brings its
// own.
func BenchmarkPipelinedRounds(b *testing.B) {
	const (
		users   = 24
		mu      = 20
		servers = 3
		rounds  = 6
	)
	for _, window := range []int{1, 2, 4} {
		name := fmt.Sprintf("window=%d", window)
		if window == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				cn, err := sim.NewChainNet(sim.ChainNetConfig{
					Servers: servers,
					Chain:   mixnet.Config{ConvoNoise: noise.Fixed{N: mu}},
					Entry:   coordinator.Config{ConvoWindow: window, SubmitTimeout: 10 * time.Second},
				})
				if err != nil {
					b.Fatal(err)
				}
				// One round outside the measurement dials and handshakes
				// every leg.
				if _, err := cn.RunRounds(users, 1); err != nil {
					cn.Close()
					b.Fatal(err)
				}
				start := time.Now()
				_, err = cn.RunRounds(users, rounds)
				total += time.Since(start)
				cn.Close()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric((total / time.Duration(b.N*rounds)).Seconds(), "s/round")
		})
	}
}

// BenchmarkDHThroughput is the §8.2 micro-benchmark behind the dominant-
// cost analysis: X25519 shared-secret derivations per second.
func BenchmarkDHThroughput(b *testing.B) {
	peer, _, err := box.GenerateKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	_, priv, err := box.GenerateKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := box.Precompute(&peer, &priv); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAttackAdvantage runs the §4.2 discard attack (10 rounds per
// world) against noiseless and noised chains.
func BenchmarkAttackAdvantage(b *testing.B) {
	b.Run("no-noise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := eval.Experiment{Rounds: 10}.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Advantage, "advantage")
		}
	})
	b.Run("laplace-noise", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := eval.Experiment{
				Rounds:   10,
				Noise:    noise.Laplace{Mu: 40, B: 10},
				NoiseSrc: rand.New(rand.NewSource(int64(i))),
			}.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.Advantage, "advantage")
		}
	})
}

// BenchmarkAblationNoiseSampling compares Laplace sampling against the
// paper's fixed-noise evaluation mode (§8.1) — confirming sampling is not
// a bottleneck.
func BenchmarkAblationNoiseSampling(b *testing.B) {
	src := rand.New(rand.NewSource(1))
	b.Run("laplace", func(b *testing.B) {
		d := noise.Laplace{Mu: 300000, B: 13800}
		for i := 0; i < b.N; i++ {
			d.Sample(src)
		}
	})
	b.Run("fixed", func(b *testing.B) {
		d := noise.Fixed{N: 300000}
		for i := 0; i < b.N; i++ {
			d.Sample(src)
		}
	})
}

// BenchmarkAblationWorkers measures how round latency scales with the
// crypto worker pool — the parallelism that lets the paper's 36-core
// servers hit 340K DH ops/sec.
func BenchmarkAblationWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt, err := measureWithWorkers(500, 100, workers)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(pt.Seconds(), "s/round")
			}
		})
	}
}

func measureWithWorkers(users, mu, workers int) (time.Duration, error) {
	// sim.MeasureConvoRound always uses all cores; this variant pins the
	// pool size to isolate the scaling effect.
	pt, err := sim.MeasureConvoRoundWorkers(users, mu, 3, workers)
	if err != nil {
		return 0, err
	}
	return pt.Latency, nil
}

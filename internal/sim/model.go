// Package sim is the evaluation harness: it regenerates the performance
// figures of the paper's §8 (Figures 9, 10, 11), the dominant-cost
// analysis (§8.2), and the bandwidth accounting (§8.3).
//
// Two modes compose:
//
//   - Measured: real rounds at laptop scale (measure.go), each entered
//     at the head of a fresh ChainNet — the same served, secured chain
//     every other in-process deployment runs — verifying the linear
//     scaling the figures rest on and calibrating this machine's crypto
//     throughput.
//
//   - Modeled: an analytic cost model (this file) driven by
//     Diffie-Hellman operation counts — the cost the paper identifies as
//     dominant ("Most of the CPU time on Vuvuzela servers is spent
//     wrapping and unwrapping of encryption layers", §8.2) — calibrated
//     either to the paper's testbed (340,000 DH ops/sec per 36-core
//     server) or to this machine's measured throughput.
//
// The paper's testbed is replaced by the model plus scaled measurement;
// `go run ./cmd/vuvuzela-bench all` prints each figure beside the
// paper's anchor numbers.
//
// The package is also the one in-memory deployment harness (chainnet.go,
// swarm.go): ChainNet runs every role of a deployment in one process as
// a table of nodes named by listen address — Nodes, Kill, Restart — with
// one self-healing client population, Swarm, and WaitReady to tell when
// the entry tier has re-formed. Its nodes are wired exactly as the
// production binaries are: it generates a chain descriptor with
// vuvuzela-keygen's generator and boots every role through the same
// internal/deploy functions as vuvuzela-server, -entry and -frontend,
// over an in-memory transport. The fault suites here, internal/eval's
// adversarial experiments, the measured figures, the root benchmarks
// and the public facade all drive that harness.
package sim

import (
	"time"
)

// CostModel predicts round latency from Diffie-Hellman operation counts.
type CostModel struct {
	// DHOpsPerSec is one server's aggregate X25519 throughput (all
	// cores). The paper's c4.8xlarge does ≈340,000 ops/sec (§8.2).
	DHOpsPerSec float64
	// Overhead is the full-protocol multiplier over raw crypto cost.
	// Fitting the paper's Figure 9 anchors gives ≈1.98, matching §8.2's
	// "within 2× of the cost of the inevitable cryptographic operations".
	Overhead float64
	// DialFixed (seconds) is the dialing rounds' constant term: dialing
	// runs concurrently with the conversation protocol (§8.1), and the
	// contention shows up as a floor (Figure 10 starts at 13 s for 10
	// users).
	DialFixed float64
}

// PaperModel is calibrated to the paper's testbed and anchor points.
func PaperModel() CostModel {
	return CostModel{DHOpsPerSec: 340000, Overhead: 1.98, DialFixed: 12.7}
}

// ConvoOps counts the DH operations a conversation round costs across the
// chain. Server j (0-based) unwraps a batch of users + 2µ·j requests
// (every non-last server upstream added ≈2µ noise requests — §8.2);
// non-last server i additionally wraps its 2µ noise onions for the
// remaining s−1−i layers. The total is
//
//	s·U + 2µ·s(s−1)       (unwrap: s·U + µ·s(s−1); wrap: µ·s(s−1))
func ConvoOps(users int, mu float64, servers int) float64 {
	s := float64(servers)
	return s*float64(users) + 2*mu*s*(s-1)
}

// ConvoLatency predicts end-to-end conversation round latency: servers
// process sequentially ("one server cannot start processing a round until
// the previous server finishes", §8.2), so the chain's total op count
// divides by one server's throughput.
func (m CostModel) ConvoLatency(users int, mu float64, servers int) time.Duration {
	secs := ConvoOps(users, mu, servers) / m.DHOpsPerSec * m.Overhead
	return time.Duration(secs * float64(time.Second))
}

// ConvoThroughput predicts steady-state messages/sec with pipelined
// rounds: the busiest single server limits the round period. Server j's
// work is its unwrap batch plus its noise wrapping.
func (m CostModel) ConvoThroughput(users int, mu float64, servers int) float64 {
	maxOps := 0.0
	s := servers
	for j := 0; j < s; j++ {
		ops := float64(users) + 2*mu*float64(j) // unwrap batch
		if j < s-1 {
			ops += 2 * mu * float64(s-1-j) // wrap noise for the suffix
		}
		if ops > maxOps {
			maxOps = ops
		}
	}
	period := maxOps / m.DHOpsPerSec * m.Overhead
	if period <= 0 {
		return 0
	}
	return float64(users) / period
}

// DialOps counts a dialing round's DH operations: per-bucket noise of
// mean µd from each mixing server (m·µd requests each), wrapped for the
// remaining layers; the last server's own noise needs no wrapping.
func DialOps(users int, muD float64, buckets uint32, servers int) float64 {
	s := float64(servers)
	noise := muD * float64(buckets)
	return s*float64(users) + 2*noise*s*(s-1)/2
}

// DialLatency predicts dialing round latency, including the concurrency
// floor.
func (m CostModel) DialLatency(users int, muD float64, buckets uint32, servers int) time.Duration {
	secs := DialOps(users, muD, buckets, servers)/m.DHOpsPerSec*m.Overhead + m.DialFixed
	return time.Duration(secs * float64(time.Second))
}

// CryptoLowerBound reproduces §8.2's lower-bound argument: with U users
// and noise 2µ per non-last server, each of the s servers performs one DH
// op per message of the full batch (the paper approximates every server
// handling the final batch size), so the best case is
//
//	(U + 2µ·(s−1)) · s / rate
//
// For 2M users, µ=300K, 3 servers: (3.2M × 3)/340K ≈ 28 s. The floor
// counts unwraps only — one exchange per onion per server, none for
// wrapping the noise — each at the batched cost MeasureDHThroughput times.
func (m CostModel) CryptoLowerBound(users int, mu float64, servers int) time.Duration {
	batch := float64(users) + 2*mu*float64(servers-1)
	secs := batch * float64(servers) / m.DHOpsPerSec
	return time.Duration(secs * float64(time.Second))
}

// Point is one (x, y) of a figure's series.
type Point struct {
	Users   int           // x: connected users
	Latency time.Duration // y: modeled end-to-end round latency
}

// Figure9 generates the modeled latency-vs-users series for the given
// noise means (the paper plots µ = 100K, 200K, 300K over 10..2M users).
func Figure9(m CostModel, users []int, mus []float64, servers int) map[float64][]Point {
	out := make(map[float64][]Point, len(mus))
	for _, mu := range mus {
		pts := make([]Point, 0, len(users))
		for _, u := range users {
			pts = append(pts, Point{Users: u, Latency: m.ConvoLatency(u, mu, servers)})
		}
		out[mu] = pts
	}
	return out
}

// Figure10 generates the modeled dialing latency series (µd = 13K, m
// buckets, conversation protocol concurrent).
func Figure10(m CostModel, users []int, muD float64, buckets uint32, servers int) []Point {
	pts := make([]Point, 0, len(users))
	for _, u := range users {
		pts = append(pts, Point{Users: u, Latency: m.DialLatency(u, muD, buckets, servers)})
	}
	return pts
}

// ChainPoint is one (servers, latency) of Figure 11.
type ChainPoint struct {
	Servers int           // x: chain length
	Latency time.Duration // y: modeled end-to-end round latency
}

// Figure11 generates the modeled latency-vs-chain-length series (1M
// users, µ=300K; the paper varies 1..6 servers and observes ≈quadratic
// growth).
func Figure11(m CostModel, users int, mu float64, maxServers int) []ChainPoint {
	pts := make([]ChainPoint, 0, maxServers)
	for s := 1; s <= maxServers; s++ {
		pts = append(pts, ChainPoint{Servers: s, Latency: m.ConvoLatency(users, mu, s)})
	}
	return pts
}

// DefaultFigure9Users are the x-axis samples used by the bench harness.
var DefaultFigure9Users = []int{10, 250000, 500000, 1000000, 1500000, 2000000}

// DefaultFigure9Mus are the three noise curves of Figure 9.
var DefaultFigure9Mus = []float64{100000, 200000, 300000}

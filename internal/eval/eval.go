// Package eval is the end-to-end adversarial evaluation harness: it
// runs the traffic-analysis attacks from the paper's §4.2 (and the
// observer attacks of "Practical Traffic Analysis Attacks on Secure
// Messaging Applications", PAPERS.md) against the *real* stack — a
// sim.ChainNet deployment with frontends, transport.Secure legs, real
// noise from internal/noise, and the real dead-drop exchange — and
// measures the adversary's empirical distinguishing advantage against
// the (ε,δ) accounting in internal/privacy.
//
// Every measurement is the two-world setup of the paper's Figure 2: the
// same deployment is run once in a world where Alice and Bob converse
// and once where both are idle, the adversary records a per-round
// observation in each, and a threshold distinguisher is scored on how
// well it separates the worlds. An Experiment's defaults are the §4.2
// discard attack itself (three servers, the pair as the only clients,
// noise from the honest middle server); Scenario and Position generalize
// it. Differential privacy for the observables means the best advantage
// is bounded by e^ε − 1 + δ per round; docs/EVAL.md explains how to read
// the measurements.
//
// The deployment, its fault injection (Kill / Restart by listen address)
// and its clients (sim.Swarm, ChainNet.WaitReady) are all internal/sim's:
// this package adds the adversary's taps, the scenarios and the scoring.
package eval

// Observation is what the adversary records from one completed
// conversation round. Which fields are populated depends on the
// adversary Position: compromised servers read the dead-drop
// histogram; a wire observer reads only record counts and sizes.
type Observation struct {
	// Round is the coordinator round number the observation belongs to.
	Round uint64
	// M1 is the number of dead drops accessed exactly once this round
	// (idle users and singleton noise), as seen by the compromised
	// last server before the exchange runs.
	M1 int
	// M2 is the number of dead drops accessed twice or more this round
	// (conversing pairs and paired noise) — the §4.2 observable.
	M2 int
	// Records is the number of transport records the wire observer saw
	// cross the tapped leg during the round (both directions).
	Records int
	// Bytes is the total record payload, in bytes, the wire observer
	// saw cross the tapped leg during the round.
	Bytes int
}

// Feature maps an observation to the scalar a threshold distinguisher
// tests. The canonical features are FeatureM2 (compromised servers)
// and FeatureBytes (wire observer).
type Feature func(Observation) int

// FeatureM2 is the §4.2 distinguisher's observable: the number of dead
// drops accessed twice, which a conversing pair increments by one over
// the noise floor.
func FeatureM2(o Observation) int { return o.M2 }

// FeatureBytes is the wire observer's observable: bytes on the tapped
// leg per round. With fixed-size onions and one request per client per
// round it should carry no signal at all.
func FeatureBytes(o Observation) int { return o.Bytes }

// Advantage scores the threshold distinguisher "guess talking iff
// feature(obs) >= threshold" over per-round observations from the two
// worlds: |P[guess talking | talking] − P[guess talking | idle]|.
func Advantage(feature Feature, threshold int, talking, idle []Observation) float64 {
	if len(talking) == 0 || len(idle) == 0 {
		return 0
	}
	pt := rate(feature, threshold, talking)
	pi := rate(feature, threshold, idle)
	if pt > pi {
		return pt - pi
	}
	return pi - pt
}

// rate is the fraction of observations at or above the threshold.
func rate(feature Feature, threshold int, obs []Observation) float64 {
	hits := 0
	for _, o := range obs {
		if feature(o) >= threshold {
			hits++
		}
	}
	return float64(hits) / float64(len(obs))
}

// BestAdvantage sweeps every useful threshold and returns the best
// advantage the adversary's feature achieves, with the threshold that
// achieves it — the empirical analogue of the per-round (ε,δ) bound.
func BestAdvantage(feature Feature, talking, idle []Observation) (adv float64, threshold int) {
	max := 0
	for _, o := range talking {
		if v := feature(o); v > max {
			max = v
		}
	}
	for _, o := range idle {
		if v := feature(o); v > max {
			max = v
		}
	}
	for t := 0; t <= max+1; t++ {
		if a := Advantage(feature, t, talking, idle); a > adv {
			adv, threshold = a, t
		}
	}
	return adv, threshold
}

// Position is where the adversary sits, which determines what each
// Observation contains and which Feature scores the attack.
type Position int

const (
	// CompromisedServers is the paper's §4.2 adversary: it controls the
	// first and last chain servers (and the whole entry tier). The
	// first server discards every request except Alice's and Bob's and
	// withholds its own noise — modeled by running only the target pair
	// (plus any IdleClients the scenario keeps) and drawing noise only
	// from the honest middle servers. The last server records the
	// dead-drop access histogram before the exchange runs.
	CompromisedServers Position = iota
	// WireObserver is a network attacker on the entry→chain-head wire
	// (leg ② of THREAT_MODEL.md §1): it cannot open transport.Secure
	// records, but sees their number, size, and timing. Observations
	// carry Records and Bytes per round; with fixed-size onions both
	// should be identical across worlds.
	WireObserver
)

// String names the position for reports.
func (p Position) String() string {
	switch p {
	case CompromisedServers:
		return "compromised-servers"
	case WireObserver:
		return "wire-observer"
	default:
		return "unknown"
	}
}

// Feature is the observable a distinguisher at this position
// thresholds on.
func (p Position) Feature() Feature {
	if p == WireObserver {
		return FeatureBytes
	}
	return FeatureM2
}

package eval

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/privacy"
	"vuvuzela/internal/sim"
	"vuvuzela/internal/transport"
)

// Experiment is a two-world adversarial evaluation against a full
// sim.ChainNet deployment. The same deployment, scenario, and noise
// parameters run once with Alice and Bob conversing and once with
// everyone idle; the adversary's per-round observations from the two
// worlds are scored with the best threshold distinguisher.
type Experiment struct {
	// Rounds is the number of conversation rounds observed per world.
	Rounds int
	// Servers is the chain length (default 3 — the §4.2 topology).
	Servers int
	// Shards is the number of networked dead-drop shards behind the
	// last server (0 keeps the exchange in-process).
	Shards int
	// Frontends is the number of stateless entry frontends (0 puts
	// every client directly on the coordinator).
	Frontends int
	// IdleClients is the cover population beyond Alice and Bob. The
	// §4.2 adversary discards everyone else's requests at the first
	// server, so 0 models the strongest attack; scenarios that need a
	// population to churn set it higher.
	IdleClients int
	// Noise is the honest servers' conversation noise distribution
	// (nil = none, the broken-mixnet control).
	Noise noise.Distribution
	// NoisyServers lists the chain positions that draw Noise. Nil
	// defaults to the honest middle servers only — positions
	// 1..Servers-2 — because the §4.2 adversary's first server
	// withholds its noise and the last never adds any.
	NoisyServers []int
	// NoiseSrc seeds the noise draws for reproducible runs (nil =
	// crypto/rand). The experiment serializes access, so a plain
	// seeded math/rand source is fine; both worlds share it, in
	// talking-then-idle order.
	NoiseSrc noise.Source
	// Adversary is where the attacker sits (default
	// CompromisedServers).
	Adversary Position
	// Scenario is the workload/fault pattern (zero value = baseline).
	Scenario Scenario
	// SubmitTimeout bounds each round's client collection (default
	// coordinator.New's; rounds close early once every client
	// submitted).
	SubmitTimeout time.Duration
}

// Result is the outcome of one two-world experiment.
type Result struct {
	// Talking holds per-round observations from the world where Alice
	// and Bob converse, in round order. Failed rounds are absent.
	Talking []Observation
	// Idle holds per-round observations from the all-idle world.
	Idle []Observation
	// FailedTalking counts rounds of the talking world that did not
	// complete (e.g. aborted by a fault the scenario injected).
	FailedTalking int
	// FailedIdle counts rounds of the idle world that did not
	// complete.
	FailedIdle int
	// Advantage is the best threshold distinguisher's empirical
	// advantage on the adversary's feature.
	Advantage float64
	// Threshold is the feature threshold achieving Advantage.
	Threshold int
}

// Guarantee returns the per-round (ε,δ) guarantee internal/privacy
// computes for the experiment's noise parameters, and whether one
// applies (only Laplace noise has an accounting).
func (e Experiment) Guarantee() (privacy.Guarantee, bool) {
	lap, ok := e.Noise.(noise.Laplace)
	if !ok {
		return privacy.Guarantee{}, false
	}
	return privacy.ConvoRound(privacy.Params{Mu: lap.Mu, B: lap.B}), true
}

// AdvantageBound returns the distinguishing-advantage bound e^ε − 1 + δ
// implied by Guarantee, and whether one applies. An empirical
// Advantage above it (beyond sampling error) means the deployment
// leaks more than the accounting claims.
func (e Experiment) AdvantageBound() (float64, bool) {
	g, ok := e.Guarantee()
	if !ok {
		return 0, false
	}
	return math.Expm1(g.Eps) + g.Delta, true
}

// Run executes both worlds — talking first, then idle, sharing
// NoiseSrc — and scores the distinguisher.
func (e Experiment) Run() (*Result, error) {
	if e.Rounds < 1 {
		return nil, fmt.Errorf("eval: experiment needs >= 1 round, got %d", e.Rounds)
	}
	if e.Servers == 0 {
		e.Servers = 3
	}
	if e.Servers < 2 {
		return nil, fmt.Errorf("eval: experiment needs >= 2 chain servers, got %d", e.Servers)
	}
	var src noise.Source
	if e.NoiseSrc != nil {
		src = &lockedSource{src: e.NoiseSrc}
	}
	talking, failedT, err := e.runWorld(src, true)
	if err != nil {
		return nil, fmt.Errorf("eval: talking world: %w", err)
	}
	idle, failedI, err := e.runWorld(src, false)
	if err != nil {
		return nil, fmt.Errorf("eval: idle world: %w", err)
	}
	res := &Result{
		Talking:       talking,
		Idle:          idle,
		FailedTalking: failedT,
		FailedIdle:    failedI,
	}
	res.Advantage, res.Threshold = BestAdvantage(e.Adversary.Feature(), talking, idle)
	return res, nil
}

// noisyServers resolves the default: every honest middle position.
func (e Experiment) noisyServers() []int {
	if e.NoisyServers != nil {
		return e.NoisyServers
	}
	mid := make([]int, 0, e.Servers)
	for i := 1; i < e.Servers-1; i++ {
		mid = append(mid, i)
	}
	return mid
}

// runWorld boots one deployment, runs the scenario and the rounds, and
// returns the adversary's observations plus the failed-round count.
func (e Experiment) runWorld(src noise.Source, conversing bool) ([]Observation, int, error) {
	hist := &histTap{obs: make(map[uint64]Observation)}
	cfg := sim.ChainNetConfig{
		Servers:      e.Servers,
		Shards:       e.Shards,
		Frontends:    e.Frontends,
		NoisyServers: e.noisyServers(),
		Chain:        mixnet.Config{ConvoNoise: e.Noise, NoiseSrc: src, ConvoObserver: hist.observe},
		Entry:        coordinator.Config{SubmitTimeout: e.SubmitTimeout},
	}

	var mitm *transport.MITM
	if e.Adversary == WireObserver {
		mitm = transport.NewMITM(transport.NewMem())
		cfg.Net = mitm
	}
	cn, err := sim.NewChainNet(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer cn.Close()
	var tap *wireTrace
	if mitm != nil {
		// The entry dials the chain head at its first round, so the tap
		// on that leg is in place before any record crosses it.
		tap = &wireTrace{}
		mitm.Intercept(cn.ServerAddrs[0], tap.rewriter())
	}

	clients := e.buildClients(conversing)
	sw, err := cn.NewSwarm(clients, nil)
	if err != nil {
		return nil, 0, err
	}
	defer sw.Close()
	run := &Run{Chain: cn, Conversing: conversing, Rounds: e.Rounds, sw: sw, clients: len(clients)}
	if err := run.WaitReady(5 * time.Second); err != nil {
		return nil, 0, err
	}
	var obs []Observation
	failed := 0
	for i := 0; i < e.Rounds; i++ {
		if e.Scenario.BeforeRound != nil {
			if err := e.Scenario.BeforeRound(run, i); err != nil {
				return nil, 0, fmt.Errorf("scenario %q before round %d: %w", e.Scenario.Name, i, err)
			}
		}
		var mark wireMark
		if tap != nil {
			mark = tap.mark()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		round, _, err := cn.Coord.RunConvoRound(ctx)
		cancel()
		if err != nil {
			failed++
			continue
		}
		o := Observation{Round: round}
		if h, ok := hist.take(round); ok {
			o.M1, o.M2 = h.M1, h.M2
		}
		if tap != nil {
			o.Records, o.Bytes = tap.since(mark)
		}
		obs = append(obs, o)
	}
	return obs, failed, nil
}

// buildClients derives the swarm population: Alice and Bob (each the
// other's peer only in the talking world) followed by IdleClients idle
// cover clients.
func (e Experiment) buildClients(conversing bool) []sim.SwarmClient {
	names := []string{"eval-alice", "eval-bob"}
	for i := 0; i < e.IdleClients; i++ {
		names = append(names, fmt.Sprintf("eval-idle-%d", i))
	}
	clients := make([]sim.SwarmClient, len(names))
	for i, name := range names {
		clients[i].Pub, clients[i].Priv = box.KeyPairFromSeed([]byte(name))
	}
	if conversing {
		clients[0].Peer, clients[1].Peer = &clients[1].Pub, &clients[0].Pub
	}
	return clients
}

// lockedSource serializes a caller-supplied noise source: the noisy
// servers (and each world's replacement deployment) share it, and a
// seeded *rand.Rand is not safe for concurrent use.
type lockedSource struct {
	mu  sync.Mutex
	src noise.Source
}

// Float64 draws from the underlying source under the lock.
func (l *lockedSource) Float64() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src.Float64()
}

// histTap records the compromised last server's per-round dead-drop
// histogram, keyed by round so failed rounds can be discarded.
type histTap struct {
	mu  sync.Mutex
	obs map[uint64]Observation
}

// observe is the ConvoObserver hook: m2 and the overflow count `more`
// fold together: the §4.2 distinguisher only cares how many drops were
// accessed at least twice.
func (h *histTap) observe(round uint64, m1, m2, more int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.obs[round] = Observation{Round: round, M1: m1, M2: m2 + more}
}

// take removes and returns the observation for a round.
func (h *histTap) take(round uint64) (Observation, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	o, ok := h.obs[round]
	if ok {
		delete(h.obs, round)
	}
	return o, ok
}

// wireTrace accumulates the wire observer's record count and byte
// totals from a transport.MITM tap on the entry→chain-head leg.
type wireTrace struct {
	mu      sync.Mutex
	records int
	bytes   int
}

// rewriter returns a transport.RecordRewriter that counts every record
// (both directions) and passes it through untouched.
func (w *wireTrace) rewriter() transport.RecordRewriter {
	return func(dir transport.Direction, index int, record []byte) [][]byte {
		w.mu.Lock()
		w.records++
		w.bytes += len(record)
		w.mu.Unlock()
		return [][]byte{record}
	}
}

// wireMark is a point-in-time snapshot of a wireTrace's counters.
type wireMark struct {
	records int
	bytes   int
}

// mark snapshots the counters; since attributes the delta to a round.
func (w *wireTrace) mark() wireMark {
	w.mu.Lock()
	defer w.mu.Unlock()
	return wireMark{records: w.records, bytes: w.bytes}
}

// since returns the records and bytes seen after the mark was taken.
func (w *wireTrace) since(m wireMark) (records, bytes int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records - m.records, w.bytes - m.bytes
}

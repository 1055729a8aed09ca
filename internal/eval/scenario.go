package eval

import (
	"context"
	"time"

	"vuvuzela/internal/sim"
)

// Run is one world's live deployment, handed to Scenario hooks so they
// can inject faults — bounce nodes, churn clients — while the experiment
// drives rounds.
type Run struct {
	// Chain is the deployment under attack.
	Chain *sim.ChainNet
	// Conversing reports which world this run is: true when Alice and
	// Bob exchange real messages, false when everyone is idle cover.
	Conversing bool
	// Rounds is the number of conversation rounds this world will run.
	Rounds int

	sw      *sim.Swarm
	clients int // swarm size: Alice, Bob, then the idle cover clients
	kicked  int // KickIdleClient calls so far
}

// WaitReady blocks until every swarm client is registered with the
// entry tier and every live frontend's pipe is connected, or the
// timeout expires. Scenario hooks call it after a restart so the next
// round doesn't race the rejoin.
func (r *Run) WaitReady(timeout time.Duration) error {
	return r.Chain.WaitReady(r.clients, timeout)
}

// KickIdleClient severs one idle cover client's connection, round-robin
// so churn spreads over the cover population; the client reconnects on
// its own, so repeated kicks model leave/rejoin churn at constant
// population. Alice and Bob are never kicked. A no-op when the
// experiment has no idle clients.
func (r *Run) KickIdleClient() {
	if idle := r.clients - 2; idle > 0 {
		r.sw.Kick(2 + r.kicked%idle)
		r.kicked++
	}
}

// RunDialRound drives one dialing round through the deployment (the
// swarm answers dial announcements with idle dial requests), modeling
// mixed dial+convo load.
func (r *Run) RunDialRound() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _, err := r.Chain.Coord.RunDialRound(ctx)
	return err
}

// Scenario injects a workload/fault pattern into both worlds of an
// experiment. The zero value is the healthy baseline.
type Scenario struct {
	// Name labels the scenario in results and BENCH_privacy.json.
	Name string
	// BeforeRound, if set, runs before round i (0-based) of each
	// world. Returning an error aborts the world.
	BeforeRound func(r *Run, i int) error
}

// Baseline is the healthy-deployment scenario: no faults, pure convo
// load.
func Baseline() Scenario {
	return Scenario{Name: "baseline"}
}

// ClientChurn kicks one idle cover client before every round; the
// client reconnects immediately, so the population is constant but
// membership churns — the PR 8 churn matrix's workload under the
// adversary's eye. Each kick waits for the previous kicked client to be
// back, so a round misses at most one cover client however slowly the
// rejoin runs.
func ClientChurn() Scenario {
	return Scenario{
		Name: "churn",
		BeforeRound: func(r *Run, i int) error {
			if err := r.WaitReady(5 * time.Second); err != nil {
				return err
			}
			r.KickIdleClient()
			return nil
		},
	}
}

// MidRunRestart bounces a frontend (when the deployment has one) and
// the honest middle chain server halfway through each world, then
// waits for the deployment to re-form — measuring whether the restart
// and rejoin path changes the adversary's view of the surviving
// rounds.
func MidRunRestart() Scenario {
	return Scenario{
		Name: "restart",
		BeforeRound: func(r *Run, i int) error {
			if i != r.Rounds/2 {
				return nil
			}
			if len(r.Chain.Fronts) > 0 {
				if err := r.Chain.Restart(r.Chain.FrontAddrs[0]); err != nil {
					return err
				}
			}
			if err := r.Chain.Restart(r.Chain.ServerAddrs[1]); err != nil {
				return err
			}
			return r.WaitReady(5 * time.Second)
		},
	}
}

// MixedLoad interleaves a dialing round before every `every`-th
// conversation round, so the adversary observes the two protocols'
// traffic mixed on the same wire as in production.
func MixedLoad(every int) Scenario {
	if every < 1 {
		every = 1
	}
	return Scenario{
		Name: "mixed",
		BeforeRound: func(r *Run, i int) error {
			if i%every != 0 {
				return nil
			}
			return r.RunDialRound()
		},
	}
}

package sim

// ChainNet is the package's one deployment harness: a coordinator
// (entry server), every chain server, and optionally networked dead-drop
// shard servers and entry frontends, generated by vuvuzela-keygen's
// generator and booted by internal/deploy exactly as the production
// binaries are, over an in-memory transport: entry dials server 0, server
// i dials server i+1, the last server fans out to the shards and serves
// the CDN, every leg inside transport.Secure. Every process is one row of
// a node table, named by its listen address (the name transport.Faulty
// and transport.MITM use for the leg that ends there), and Restart (and,
// in this package's tests, Kill) take that name: with a StateDir, each
// node persists its round state as the binaries do with -round-state. It
// is the one in-process deployment: the fault suites, internal/eval, the
// measured figures (measure.go) and the public facade
// (vuvuzela.NewInProcessNetwork) all stand theirs up here.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deploy"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
)

// ChainNetConfig describes a fully networked in-memory deployment: its
// topology and substrate, plus a template per role for what no flag
// expresses. Keys, addresses and defaults come from the descriptor and
// internal/deploy, as in a real deployment.
type ChainNetConfig struct {
	// Servers is the chain length (>= 1).
	Servers int
	// Shards is the number of networked dead-drop shard servers behind
	// the last chain server; 0 keeps the exchange in-process.
	Shards int
	// Frontends is the number of stateless entry frontends in front of
	// the coordinator; 0 keeps every client directly on the coordinator
	// (the pre-split topology). With frontends, a Swarm distributes its
	// clients round-robin over the live frontends, and the coordinator
	// additionally listens for their authenticated pipes.
	Frontends int
	// Net is the network every node listens on and dials through; nil
	// means a fresh in-memory transport.Mem. It is an option for the fault
	// wrappers: a transport.Faulty or transport.MITM acts only on the
	// addresses a test names, disturbing exactly the legs that end there.
	Net transport.Network
	// StateDir, if set, gives every node a durable round-state file, a
	// roundstate.Counters — the coordinator's entry.rounds, each chain
	// server's server-<i>.rounds, each shard's shard-<i>.round — so
	// Restart simulates a crash and recovery with replay protection
	// intact, exactly as the production `-round-state` wiring. Empty
	// runs every node memory-only (the replay-window control).
	StateDir string
	// NoisyServers lists the chain positions that keep Chain.ConvoNoise;
	// nil means every mixing (non-last) server, the production wiring. It
	// is an option for internal/eval, which narrows it to model §4.2's
	// compromised servers withholding their noise. The last server never
	// adds conversation noise (§8.2) either way.
	NoisyServers []int
	// Chain is every chain server's template, for what no flag expresses:
	// noise distributions (the suites' noise.Fixed, eval's seeded draws;
	// nil adds none), NoiseSrc. The last server's ConvoObserver (eval's
	// adversary tap) is chained after the harness's own round log (see
	// ExchangedRounds).
	Chain mixnet.Config
	// Entry is the coordinator's template, for what no flag expresses —
	// a suite's ConvoExchanges — and the flags a suite sets
	// (SubmitTimeout, ConvoWindow); its DialBuckets is the descriptor's
	// dial_buckets, the facade's Options.DialBuckets.
	Entry coordinator.Config
}

// ChainNet is a running fully networked chain.
type ChainNet struct {
	// Pubs is the chain's public keys, for building client onions.
	Pubs []box.PublicKey
	// Privs is the chain's private keys, by position. Adversarial tests
	// use them to speak to a server directly, as a (replaying)
	// predecessor would.
	Privs []box.PrivateKey
	// Coord is the entry server, nil while it is killed; Restart replaces
	// it, so grab it fresh after restarting EntryAddr.
	Coord *coordinator.Coordinator
	// Servers is the chain, head first; nil entries are killed nodes.
	Servers []*mixnet.Server
	// Shards are the networked shard servers (empty when Shards == 0);
	// nil entries are killed nodes.
	Shards []*mixnet.ShardServer
	// ShardPubs are the shards' long-term public keys, by index.
	ShardPubs []box.PublicKey
	// Fronts are the entry frontends (empty when Frontends == 0); nil
	// entries are killed nodes. Restart replaces entries, so grab them
	// fresh after restarting a FrontAddrs address.
	Fronts []*frontend.Frontend
	// EntryAddr is the coordinator's client-facing listen address.
	EntryAddr string
	// CDNAddr is where the last chain server serves invitation buckets;
	// it goes down and comes back with that server.
	CDNAddr string
	// FrontAddrs are the frontends' client-facing listen addresses.
	FrontAddrs []string
	// ServerAddrs are the chain servers' listen addresses, in chain
	// order.
	ServerAddrs []string
	// ShardAddrs are the shard servers' listen addresses, by index.
	ShardAddrs []string

	cfg   ChainNetConfig
	nodes []*node // in boot order; Close runs it backwards

	roundMu sync.Mutex
	rounds  []uint64
}

// node is one process of the deployment: a deploy.Role and its lifecycle.
// What differs between the roles is data here, so the kill and restart
// order is written once, in kill and ChainNet.Restart.
type node struct {
	deploy.Role
	// statePath is the durable round-state file ("" = memory-only).
	statePath string
	// stopFirst has Restart kill the running process before its
	// replacement starts, not after it listens: a frontend holds no round
	// state a replay could target, and two processes of one frontend
	// would both hold a pipe into the coordinator.
	stopFirst bool
	// set publishes the process in its exported slot (Coord, Servers[i],
	// ...); nil clears the slot.
	set func(proc io.Closer)

	ls    []net.Listener
	proc  io.Closer // nil while the node is down
	state *roundstate.Counters
}

// NewChainNet generates the deployment's descriptor and starts the shard
// servers, the chain servers (each on its own listener, last server
// first), the coordinator, and the frontends.
func NewChainNet(cfg ChainNetConfig) (*ChainNet, error) {
	if cfg.Net == nil {
		cfg.Net = transport.NewMem()
	}
	layout := deploy.Defaults
	layout.Servers, layout.Shards, layout.Frontends = cfg.Servers, cfg.Shards, cfg.Frontends
	layout.DialBuckets = cmp.Or(cfg.Entry.DialBuckets, layout.DialBuckets)
	chain, keys, err := deploy.Generate(layout)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	cn := &ChainNet{
		Pubs:        chain.PublicKeys(),
		Servers:     make([]*mixnet.Server, len(chain.Servers)),
		Shards:      make([]*mixnet.ShardServer, len(chain.Shards)),
		ShardPubs:   chain.ShardKeys(),
		Fronts:      make([]*frontend.Frontend, len(chain.Frontends)),
		EntryAddr:   chain.EntryAddr,
		CDNAddr:     chain.CDNAddr(),
		FrontAddrs:  chain.Frontends,
		ServerAddrs: make([]string, len(chain.Servers)),
		ShardAddrs:  chain.ShardAddrs(),
		cfg:         cfg,
	}
	for i, s := range chain.Servers {
		cn.ServerAddrs[i] = s.Addr
		cn.Privs = append(cn.Privs, box.PrivateKey(keys.Servers[i].PrivateKey))
	}
	// add appends the node of a role a deploy function placed, its round
	// state in the StateDir file named name. A node without one, a
	// frontend, stops before its replacement starts.
	var errs []error
	add := func(name string, set func(io.Closer)) func(deploy.Role, error) {
		return func(role deploy.Role, err error) {
			errs = append(errs, err)
			n := &node{Role: role, stopFirst: name == "", set: set}
			if name != "" && cfg.StateDir != "" {
				n.statePath = filepath.Join(cfg.StateDir, name)
			}
			cn.nodes = append(cn.nodes, n)
		}
	}
	for i := range keys.Shards {
		add(fmt.Sprintf("shard-%d.round", i), func(p io.Closer) { cn.Shards[i], _ = p.(*mixnet.ShardServer) })(
			deploy.Server(chain, &keys.Shards[i], cfg.Net, mixnet.Config{}))
	}
	// A template distribution left nil adds no noise: it is passed as an
	// explicit noise.Fixed{}, as is the noise of a server NoisyServers
	// silences, where deploy.Server would draw the descriptor's Laplace.
	for i := len(chain.Servers) - 1; i >= 0; i-- {
		mc := cfg.Chain
		mc.ConvoNoise = cmp.Or[noise.Distribution](mc.ConvoNoise, noise.Fixed{})
		mc.DialNoise = cmp.Or[noise.Distribution](mc.DialNoise, noise.Fixed{})
		if cfg.NoisyServers != nil && !slices.Contains(cfg.NoisyServers, i) {
			mc.ConvoNoise = noise.Fixed{}
		}
		if i == len(chain.Servers)-1 {
			// Every round number that reaches the exchange lands in the
			// harness's round log — the matrix's "never repeats on the
			// wire" assertion reads it back via ExchangedRounds. The
			// template's observer (the eval harness's adversary tap) is
			// chained after it.
			observe := cfg.Chain.ConvoObserver
			mc.ConvoObserver = func(round uint64, m1, m2, more int) {
				cn.roundMu.Lock()
				cn.rounds = append(cn.rounds, round)
				cn.roundMu.Unlock()
				if observe != nil {
					observe(round, m1, m2, more)
				}
			}
		}
		add(fmt.Sprintf("server-%d.rounds", i), func(p io.Closer) { cn.Servers[i], _ = p.(*mixnet.Server) })(
			deploy.Server(chain, &keys.Servers[i], cfg.Net, mc))
	}
	add("entry.rounds", func(p io.Closer) { cn.Coord, _ = p.(*coordinator.Coordinator) })(
		deploy.Entry(chain, keys.Entry, cfg.Net, cfg.Entry))
	for i := range chain.Frontends {
		add("", func(p io.Closer) { cn.Fronts[i], _ = p.(*frontend.Frontend) })(
			deploy.Frontend(chain, i, cfg.Net, frontend.Config{}))
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	for _, n := range cn.nodes {
		if err := cn.start(n); err != nil {
			cn.Close()
			return nil, err
		}
	}
	return cn, nil
}

// start boots n's process: round state re-read from disk, listeners
// bound, process serving and published. The caller has closed any
// previous listeners on n's addresses.
func (cn *ChainNet) start(n *node) error {
	if n.statePath != "" {
		// A real restart re-reads the file — reusing the old in-memory
		// store would hide a counter that never hit the disk — and the
		// dead process's flock on it is gone by then.
		if n.state != nil {
			n.state.Close()
			n.state = nil
		}
		state, err := roundstate.OpenCounters(n.statePath)
		if err != nil {
			return err
		}
		n.state = state
	}
	ls, err := deploy.Listen(cn.cfg.Net, n.Addrs)
	if err != nil {
		return err
	}
	proc, _, err := n.Boot(n.state, ls)
	if err != nil {
		closeListeners(ls)
		return err
	}
	n.ls, n.proc = ls, proc
	n.set(proc)
	return nil
}

func closeListeners(ls []net.Listener) {
	for _, l := range ls {
		l.Close()
	}
}

// kill severs n's listeners and every connection of its process, clears
// its exported slot, and releases its round-state lock (a real process
// death releases the flock implicitly).
func (n *node) kill() {
	if n.proc != nil {
		closeListeners(n.ls)
		n.proc.Close()
		n.proc = nil
		n.set(nil)
	}
	if n.state != nil {
		n.state.Close()
		n.state = nil
	}
}

// node returns the node listening on addr, or nil.
func (cn *ChainNet) node(addr string) *node {
	for _, n := range cn.nodes {
		for _, a := range n.Addrs {
			if a == addr {
				return n
			}
		}
	}
	return nil
}

// Nodes names every process of the deployment by its listen address
// (the entry by EntryAddr), in boot order: shards, chain servers last
// first, the entry, frontends. These are the names Restart and Kill
// take, and the ones transport.Faulty and transport.MITM give the legs
// that end at each node.
func (cn *ChainNet) Nodes() []string {
	addrs := make([]string, len(cn.nodes))
	for i, n := range cn.nodes {
		addrs[i] = n.Addrs[0]
	}
	return addrs
}

// Restart simulates the process listening on addr crashing (if still
// up) and a fresh one taking over on the same address with the same
// key, re-reading its round state from disk when the net was built with
// StateDir; without one it starts over at round 1 — the control case a
// durable chain rejects. The new listener is up before the old
// connections are severed, so a peer's redial after noticing the crash
// lands on the replacement — the worst case for replay, since the retry
// of an in-flight round reaches a process that must refuse it from the
// durable counter. Frontends hold no round state: the old process stops
// first, and after an entry restart the running ones reconnect their
// pipes on their own.
func (cn *ChainNet) Restart(addr string) error {
	n := cn.node(addr)
	if n == nil {
		return fmt.Errorf("sim: no node listens on %q", addr)
	}
	if n.stopFirst {
		n.kill()
	}
	old := n.proc
	// Stop accepting on the old address first so the replacement can
	// bind; existing connections stay up until old.Close below.
	closeListeners(n.ls)
	if err := cn.start(n); err != nil {
		return err
	}
	if old != nil {
		old.Close()
	}
	return nil
}

// Close shuts every node down and releases every round-state lock.
func (cn *ChainNet) Close() {
	for i := len(cn.nodes) - 1; i >= 0; i-- {
		cn.nodes[i].kill()
	}
}

// ExchangedRounds returns every round number that reached the last
// server's dead-drop exchange, in arrival order. The restart matrix
// asserts the sequence is strictly increasing: a repeat means some node
// re-ran a consumed round after a crash.
func (cn *ChainNet) ExchangedRounds() []uint64 {
	cn.roundMu.Lock()
	defer cn.roundMu.Unlock()
	return append([]uint64(nil), cn.rounds...)
}

// ClientAddrs returns where fresh clients should connect: the live
// frontends when the net runs a frontend tier, otherwise the
// coordinator directly.
func (cn *ChainNet) ClientAddrs() []string {
	addrs := make([]string, 0, len(cn.FrontAddrs))
	for i, fe := range cn.Fronts {
		if fe != nil {
			addrs = append(addrs, cn.FrontAddrs[i])
		}
	}
	if len(addrs) == 0 {
		addrs = append(addrs, cn.EntryAddr)
	}
	return addrs
}

// WaitReady blocks until exactly `clients` clients are registered across
// the coordinator and the live frontends and the coordinator holds the
// pipes of exactly the live frontends — before that, an announcement
// misses somebody — or fails when the timeout expires. With the entry
// down there is no coordinator to announce a round, which is an error at
// once.
func (cn *ChainNet) WaitReady(clients int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if cn.Coord == nil {
			return errors.New("sim: entry is down")
		}
		// Pipes are matched by key, not counted: the coordinator may still
		// hold a just-killed frontend's pipe while a live one's is not
		// registered yet, and a round announced then reaches the dead pipe
		// only.
		pipes := cn.Coord.FrontendKeys()
		registered, live, piped := cn.Coord.NumClients(), 0, 0
		for _, fe := range cn.Fronts {
			if fe != nil {
				live++
				registered += fe.NumClients()
				if slices.Contains(pipes, fe.PipeKey()) {
					piped++
				}
			}
		}
		if registered == clients && piped == live && len(pipes) == live {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("sim: %d of %d clients registered and %d of %d frontend pipes connected (%d held) after %v",
				registered, clients, piped, live, len(pipes), timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// RunRounds drives n conversation rounds through the entry tier with a
// fresh Swarm of `clients` idle clients, each sending as many requests
// per round as the entry announces. It fails unless every
// announced round completes with every client participating and every
// client receives every round's reply; it returns the delivered round
// numbers in delivery order. Rounds run through the coordinator's
// pipeline when the net was built with Entry.ConvoWindow > 1.
func (cn *ChainNet) RunRounds(clients, n int) ([]uint64, error) {
	var (
		mu          sync.Mutex
		delivered   []uint64
		outstanding = clients * n
		allIn       = make(chan struct{})
	)
	if outstanding == 0 {
		close(allIn)
	}
	sw, err := cn.NewSwarm(make([]SwarmClient, clients), func(client int, round uint64) {
		mu.Lock()
		defer mu.Unlock()
		if client == 0 {
			delivered = append(delivered, round)
		}
		if outstanding--; outstanding == 0 {
			close(allIn)
		}
	})
	if err != nil {
		return nil, err
	}
	defer sw.Close()
	if err := cn.WaitReady(clients, 5*time.Second); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	participants, err := cn.Coord.RunConvoRounds(ctx, n)
	if err != nil {
		return nil, err
	}
	if len(participants) != n {
		return nil, fmt.Errorf("sim: %d rounds completed, want %d", len(participants), n)
	}
	for r, p := range participants {
		if p != clients {
			return nil, fmt.Errorf("sim: round %d of the batch had %d participants, want %d", r+1, p, clients)
		}
	}

	// Fanout is asynchronous: wait for every client's reply to every
	// round before tearing the clients down.
	select {
	case <-allIn:
	case <-time.After(10 * time.Second):
	}
	mu.Lock()
	defer mu.Unlock()
	if outstanding > 0 {
		return nil, fmt.Errorf("sim: timed out waiting for replies (%d outstanding)", outstanding)
	}
	return delivered, nil
}

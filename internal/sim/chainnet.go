package sim

// ChainNet is the package's one deployment harness: a coordinator
// (entry server), every chain server, and optionally networked dead-drop
// shard servers and entry frontends, all wired over an in-memory
// transport exactly as the production processes are over TCP — entry
// dials server 0, server i dials server i+1, the last server fans out to
// the shards, every leg inside transport.Secure. Every process is one
// row of a node table, named by its listen address (the name
// transport.Faulty and transport.MITM use for the leg that ends there),
// and Kill / Restart take that name: with a StateDir, each node persists
// its round state the same way the real binaries do with -round-state,
// so a restart exercises the durable rejoin path for every role. It is
// the one in-process deployment: the fault suites, internal/eval, the
// measured figures (measure.go) and the public facade
// (vuvuzela.NewInProcessNetwork) all stand theirs up here.

import (
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
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
)

// ChainNetConfig describes a fully networked in-memory deployment: its
// topology and substrate, plus one template per role. What a role is
// configured with — noise, workers, shard policy, submit timeout, the
// pipelining window, the roles' own hooks — is that role's Config, set
// in the template; NewChainNet fills in only the wiring.
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
	// additionally listens on FrontPipeAddr for their authenticated
	// pipes.
	Frontends int
	// Net is the network every node listens on and dials through; nil
	// means a fresh in-memory transport.Mem. A transport.Faulty or
	// transport.MITM wrapper acts only on the addresses a test names, so
	// passing one here disturbs exactly the legs that end there.
	Net transport.Network
	// StateDir, if set, gives every node a durable round-state file, a
	// roundstate.Counters — the coordinator's entry.rounds, each chain
	// server's server-<i>.rounds, each shard's shard-<i>.round — so
	// Restart simulates a crash and recovery with replay protection
	// intact, exactly as the production `-round-state` wiring. Empty
	// runs every node memory-only (the replay-window control).
	StateDir string
	// NoisyServers lists the chain positions that keep Chain.ConvoNoise;
	// nil means every mixing (non-last) server, the production wiring.
	// The adversarial eval harness (internal/eval) narrows this to model
	// §4.2's compromised servers withholding their own noise. The last
	// server never adds conversation noise (§8.2) either way.
	NoisyServers []int
	// Chain is every chain server's config. NewChainNet fills in
	// Position, ChainPubs, Priv, Net, NextAddr, RoundState and, on the
	// last server, the shards' addresses and keys. The last server's
	// ConvoObserver is chained after the harness's own round log (see
	// ExchangedRounds).
	Chain mixnet.Config
	// Entry is the coordinator's config. NewChainNet fills in Net,
	// ChainAddr, ChainPub, FrontIdentity and RoundState; a zero
	// SubmitTimeout is 2s here (rounds close early once every client
	// submitted).
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
	// FrontPipeAddr is the coordinator's frontend-pipe listen address
	// (set when Frontends > 0).
	FrontPipeAddr string
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

// node is one process of the deployment. What differs between the roles
// is data here, so the kill and restart order is written once, in kill
// and ChainNet.Restart.
type node struct {
	// addrs are the listen addresses; addrs[0] names the node.
	addrs []string
	// statePath is the durable round-state file ("" = memory-only).
	statePath string
	// stopFirst has Restart kill the running process before its
	// replacement starts, not after it listens: a frontend holds no round
	// state a replay could target, and two processes of one frontend
	// would both hold a pipe into the coordinator.
	stopFirst bool
	// boot builds a fresh process around the just-opened round state
	// (nil when memory-only) and serves it on ls, one listener per addr.
	boot func(state *roundstate.Counters, ls []net.Listener) (io.Closer, error)
	// set publishes the process in its exported slot (Coord, Servers[i],
	// ...); nil clears the slot.
	set func(proc io.Closer)

	ls    []net.Listener
	proc  io.Closer // nil while the node is down
	state *roundstate.Counters
}

// NewChainNet starts the shard servers, the chain servers (each on its
// own listener, last server first), the coordinator, and the frontends.
func NewChainNet(cfg ChainNetConfig) (*ChainNet, error) {
	if cfg.Servers < 1 || cfg.Shards < 0 {
		return nil, fmt.Errorf("sim: chain net needs >= 1 server and >= 0 shards, got %d/%d", cfg.Servers, cfg.Shards)
	}
	if cfg.Net == nil {
		cfg.Net = transport.NewMem()
	}

	pubs, privs, err := mixnet.NewChainKeys(cfg.Servers)
	if err != nil {
		return nil, err
	}
	cn := &ChainNet{
		Pubs: pubs, Privs: privs,
		EntryAddr: "entry",
		Servers:   make([]*mixnet.Server, cfg.Servers),
		Shards:    make([]*mixnet.ShardServer, cfg.Shards),
		Fronts:    make([]*frontend.Frontend, cfg.Frontends),
		cfg:       cfg,
	}
	for i := 0; i < cfg.Servers; i++ {
		cn.ServerAddrs = append(cn.ServerAddrs, fmt.Sprintf("server-%d", i))
	}
	for i := 0; i < cfg.Shards; i++ {
		cn.ShardAddrs = append(cn.ShardAddrs, fmt.Sprintf("shard-%d", i))
	}
	for i := 0; i < cfg.Frontends; i++ {
		cn.FrontAddrs = append(cn.FrontAddrs, fmt.Sprintf("front-%d", i))
	}
	statePath := func(name string) string {
		if cfg.StateDir == "" {
			return ""
		}
		return filepath.Join(cfg.StateDir, name)
	}

	// Dead-drop shard servers, each authorizing the last chain server's key.
	if cfg.Shards > 0 {
		shardPubs, shardPrivs, err := mixnet.NewChainKeys(cfg.Shards)
		if err != nil {
			return nil, err
		}
		cn.ShardPubs = shardPubs
		for i := 0; i < cfg.Shards; i++ {
			sc := mixnet.ShardConfig{
				Index:      i,
				NumShards:  cfg.Shards,
				Identity:   shardPrivs[i],
				Authorized: []box.PublicKey{pubs[cfg.Servers-1]},
			}
			cn.nodes = append(cn.nodes, &node{
				addrs:     []string{cn.ShardAddrs[i]},
				statePath: statePath(fmt.Sprintf("shard-%d.round", i)),
				boot: func(state *roundstate.Counters, ls []net.Listener) (io.Closer, error) {
					sc := sc
					sc.RoundState = state
					ss, err := mixnet.NewShardServer(sc)
					if err != nil {
						return nil, err
					}
					go ss.Serve(ls[0])
					return ss, nil
				},
				set: func(proc io.Closer) { cn.Shards[i], _ = proc.(*mixnet.ShardServer) },
			})
		}
	}

	// Chain servers, each listening for its predecessor and dialing its
	// successor over the wire.
	for i := cfg.Servers - 1; i >= 0; i-- {
		mc := cfg.Chain
		mc.Position = i
		mc.ChainPubs = pubs
		mc.Priv = privs[i]
		mc.Net = cfg.Net
		if !cn.noisyServer(i) {
			mc.ConvoNoise = nil
		}
		if i == cfg.Servers-1 {
			mc.ShardAddrs, mc.ShardPubs = cn.ShardAddrs, cn.ShardPubs
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
		} else {
			mc.NextAddr = cn.ServerAddrs[i+1]
		}
		cn.nodes = append(cn.nodes, &node{
			addrs:     []string{cn.ServerAddrs[i]},
			statePath: statePath(fmt.Sprintf("server-%d.rounds", i)),
			boot: func(state *roundstate.Counters, ls []net.Listener) (io.Closer, error) {
				mc := mc
				mc.RoundState = state
				srv, err := mixnet.NewServer(mc)
				if err != nil {
					return nil, err
				}
				go srv.Serve(ls[0])
				return srv, nil
			},
			set: func(proc io.Closer) { cn.Servers[i], _ = proc.(*mixnet.Server) },
		})
	}

	// The entry server; with a frontend tier it owns a second listener,
	// for the frontends' authenticated pipes.
	cc := cfg.Entry
	cc.Net = cfg.Net
	cc.ChainAddr = cn.ServerAddrs[0]
	cc.ChainPub = pubs[0]
	if cc.SubmitTimeout == 0 {
		cc.SubmitTimeout = 2 * time.Second
	}
	entryAddrs := []string{cn.EntryAddr}
	var frontPub box.PublicKey
	if cfg.Frontends > 0 {
		pub, priv, err := box.GenerateKey(nil)
		if err != nil {
			return nil, err
		}
		frontPub, cc.FrontIdentity = pub, priv
		cn.FrontPipeAddr = "entry-front"
		entryAddrs = append(entryAddrs, cn.FrontPipeAddr)
	}
	cn.nodes = append(cn.nodes, &node{
		addrs:     entryAddrs,
		statePath: statePath("entry.rounds"),
		boot: func(state *roundstate.Counters, ls []net.Listener) (io.Closer, error) {
			cc := cc
			cc.RoundState = state
			co, err := coordinator.New(cc)
			if err != nil {
				return nil, err
			}
			go co.Serve(ls[0])
			if len(ls) > 1 {
				go co.ServeFrontends(ls[1])
			}
			return co, nil
		},
		set: func(proc io.Closer) { cn.Coord, _ = proc.(*coordinator.Coordinator) },
	})

	// The entry frontends, each holding its own slice of the clients.
	fc := frontend.Config{
		Net:            cfg.Net,
		CoordAddr:      cn.FrontPipeAddr,
		CoordPub:       frontPub,
		ReconnectDelay: 50 * time.Millisecond,
	}
	for i := 0; i < cfg.Frontends; i++ {
		cn.nodes = append(cn.nodes, &node{
			addrs:     []string{cn.FrontAddrs[i]},
			stopFirst: true,
			boot: func(_ *roundstate.Counters, ls []net.Listener) (io.Closer, error) {
				fe, err := frontend.New(fc)
				if err != nil {
					return nil, err
				}
				go fe.Serve(ls[0])
				go fe.Run(context.Background()) // until fe.Close
				return fe, nil
			},
			set: func(proc io.Closer) { cn.Fronts[i], _ = proc.(*frontend.Frontend) },
		})
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
	ls := make([]net.Listener, 0, len(n.addrs))
	for _, addr := range n.addrs {
		l, err := cn.cfg.Net.Listen(addr)
		if err != nil {
			closeListeners(ls)
			return err
		}
		ls = append(ls, l)
	}
	proc, err := n.boot(n.state, ls)
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
		for _, a := range n.addrs {
			if a == addr {
				return n
			}
		}
	}
	return nil
}

// Nodes names every process of the deployment by its listen address
// (the entry by EntryAddr), in boot order: shards, chain servers last
// first, the entry, frontends. These are the names Kill and Restart
// take, and the ones transport.Faulty and transport.MITM give the legs
// that end at each node.
func (cn *ChainNet) Nodes() []string {
	addrs := make([]string, len(cn.nodes))
	for i, n := range cn.nodes {
		addrs[i] = n.addrs[0]
	}
	return addrs
}

// Kill simulates the process listening on addr crashing: its listeners
// and every connection are severed, its exported slot (Coord,
// Servers[i], ...) goes nil, and its round-state lock is released.
// Clients and any in-flight round observe the death; the node stays
// down until Restart. An unknown address or a node already down is a
// no-op.
func (cn *ChainNet) Kill(addr string) {
	if n := cn.node(addr); n != nil {
		n.kill()
	}
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

// noisyServer reports whether chain position i should add conversation
// noise under cfg.NoisyServers (nil = every mixing server).
func (cn *ChainNet) noisyServer(i int) bool {
	return cn.cfg.NoisyServers == nil || slices.Contains(cn.cfg.NoisyServers, i)
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

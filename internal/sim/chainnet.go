package sim

// ChainNet is the package's one deployment harness: a coordinator
// (entry server), every chain server, and optionally networked dead-drop
// shard servers and entry frontends, all wired over an in-memory
// transport exactly as the production processes are over TCP — entry
// dials server 0, server i dials server i+1, the last server fans out to
// the shards, every leg inside transport.Secure. Every node is
// independently killable and restartable, which is what the shard fault
// suites and the chain-wide crash/restart matrix need: with a StateDir,
// each node persists its round state the same way the real binaries do
// with -round-state, so a restart exercises the durable rejoin path for
// every role.

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// ChainNetConfig describes a fully networked in-memory deployment.
type ChainNetConfig struct {
	// Servers is the chain length (>= 1).
	Servers int
	// Shards is the number of networked dead-drop shard servers behind
	// the last chain server; 0 keeps the exchange in-process.
	Shards int
	// Frontends is the number of stateless entry frontends in front of
	// the coordinator; 0 keeps every client directly on the coordinator
	// (the pre-split topology). With frontends, RunRounds distributes
	// its clients round-robin over the live frontends, and the
	// coordinator additionally listens on FrontPipeAddr for their
	// authenticated pipes.
	Frontends int
	// Mu is the fixed conversation noise per mixing server (0 = none).
	Mu int
	// Workers bounds each server's crypto/exchange goroutines.
	Workers int
	// ConvoWindow is the coordinator's pipelined in-flight bound.
	ConvoWindow int
	// SubmitTimeout bounds each round's client collection (default 2s;
	// rounds close early once every client submitted).
	SubmitTimeout time.Duration
	// ShardTimeout bounds each shard RPC (0 = wait forever).
	ShardTimeout time.Duration
	// Net is the network every node listens on and dials through; nil
	// means a fresh in-memory transport.Mem.
	Net transport.Network
	// ShardDialNet is what the last server dials shards through (nil =
	// Net). Wrap Net in a transport.Faulty here to hold a round in
	// flight at the shard leg while a test kills a node upstream.
	ShardDialNet transport.Network
	// StateDir, if set, gives every node a durable round-state file —
	// the coordinator and each chain server a roundstate.Counters
	// (entry.rounds, server-<i>.rounds), each shard a roundstate.Store
	// (shard-<i>.round) — so Restart* simulates a crash and recovery
	// with replay protection intact, exactly as the production
	// `-round-state` wiring. Empty runs every node memory-only (the
	// replay-window control).
	StateDir string
	// ConvoNoise, if set, replaces the Mu-based fixed conversation
	// noise with an arbitrary distribution (e.g. the production
	// truncated Laplace) on every noisy mixing server; Mu is then
	// ignored. The last server never adds conversation noise (§8.2)
	// under either path.
	ConvoNoise noise.Distribution
	// NoiseSrc seeds the noisy servers' ConvoNoise draws, for
	// reproducible experiments (nil = crypto/rand). Callers sharing one
	// seeded source across servers or across deployments must make it
	// safe for concurrent use.
	NoiseSrc noise.Source
	// NoisyServers lists the chain positions that add conversation
	// noise; nil means every mixing (non-last) server, the production
	// wiring. The adversarial eval harness (internal/eval) narrows this
	// to model §4.2's compromised servers withholding their own noise.
	// Last-server positions are ignored: it never adds convo noise.
	NoisyServers []int
	// ConvoObserver, if set, receives the dead-drop access histogram
	// of every conversation round that reaches the last server's
	// exchange — the compromised-last-server tap of the eval harness.
	// It fires after the harness's internal round log, before the
	// exchange runs.
	ConvoObserver func(round uint64, m1, m2, more int)
	// ShardPolicy is handed to the last server's shard router:
	// mixnet.ShardAbort (the default) or mixnet.ShardDegrade. Ignored
	// when Shards == 0.
	ShardPolicy mixnet.ShardPolicy
	// OnShardDegraded is handed to the last server's shard router; it
	// fires once per zero-filled shard per round under ShardDegrade.
	OnShardDegraded func(round uint64, shard int, addr string, err error)
}

// ChainNet is a running fully networked chain.
type ChainNet struct {
	// Pubs is the chain's public keys, for building client onions.
	Pubs []box.PublicKey
	// Privs is the chain's private keys, by position. Adversarial tests
	// use them to speak to a server directly, as a (replaying)
	// predecessor would.
	Privs []box.PrivateKey
	// Coord is the entry server; Restart* replaces it, so grab it fresh
	// after a RestartEntry.
	Coord *coordinator.Coordinator
	// Servers is the chain, head first; nil entries are killed nodes.
	Servers []*mixnet.Server
	// Shards are the networked shard servers (empty when Shards == 0).
	Shards []*mixnet.ShardServer
	// ShardPubs are the shards' long-term public keys, by index.
	ShardPubs []box.PublicKey
	// Fronts are the entry frontends (empty when Frontends == 0); nil
	// entries are killed nodes. Restart* replaces entries, so grab them
	// fresh after a RestartFrontend.
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

	cfg        ChainNetConfig
	coordCfg   coordinator.Config
	serverCfgs []mixnet.Config
	shardCfgs  []mixnet.ShardConfig
	frontCfgs  []frontend.Config

	entryStatePath   string
	serverStatePaths []string
	shardStatePaths  []string

	entryL       net.Listener
	frontPipeL   net.Listener
	serverLs     []net.Listener
	shardLs      []net.Listener
	frontLs      []net.Listener
	frontCancels []context.CancelFunc

	roundMu sync.Mutex
	rounds  []uint64
}

// NewChainNet starts the shard servers, the chain servers (each on its
// own listener), and the coordinator.
func NewChainNet(cfg ChainNetConfig) (*ChainNet, error) {
	if cfg.Servers < 1 || cfg.Shards < 0 {
		return nil, fmt.Errorf("sim: chain net needs >= 1 server and >= 0 shards, got %d/%d", cfg.Servers, cfg.Shards)
	}
	if cfg.Net == nil {
		cfg.Net = transport.NewMem()
	}
	if cfg.ShardDialNet == nil {
		cfg.ShardDialNet = cfg.Net
	}
	if cfg.SubmitTimeout == 0 {
		cfg.SubmitTimeout = 2 * time.Second
	}

	pubs, privs, err := mixnet.NewChainKeys(cfg.Servers)
	if err != nil {
		return nil, err
	}
	cn := &ChainNet{
		Pubs: pubs, Privs: privs,
		EntryAddr: "entry",
		cfg:       cfg,
	}

	// Dead-drop shard servers, each authorizing the last chain server's key.
	if cfg.Shards > 0 {
		shardPubs, shardPrivs, err := mixnet.NewChainKeys(cfg.Shards)
		if err != nil {
			return nil, err
		}
		cn.ShardPubs = shardPubs
		routerPub := pubs[cfg.Servers-1]
		for i := 0; i < cfg.Shards; i++ {
			sc := mixnet.ShardConfig{
				Index:      i,
				NumShards:  cfg.Shards,
				Workers:    cfg.Workers,
				Identity:   shardPrivs[i],
				Authorized: []box.PublicKey{routerPub},
			}
			statePath := ""
			if cfg.StateDir != "" {
				statePath = filepath.Join(cfg.StateDir, fmt.Sprintf("shard-%d.round", i))
				store, err := roundstate.Open(statePath)
				if err != nil {
					cn.Close()
					return nil, err
				}
				sc.RoundState = store
			}
			// Record the config before anything can fail, so Close always
			// releases the store's lock.
			cn.shardCfgs = append(cn.shardCfgs, sc)
			cn.shardStatePaths = append(cn.shardStatePaths, statePath)
			cn.ShardAddrs = append(cn.ShardAddrs, fmt.Sprintf("shard-%d", i))
			cn.Shards = append(cn.Shards, nil)
			cn.shardLs = append(cn.shardLs, nil)
			if err := cn.startShard(i); err != nil {
				cn.Close()
				return nil, err
			}
		}
	}

	// Chain servers, each listening for its predecessor and dialing its
	// successor over the wire.
	cn.Servers = make([]*mixnet.Server, cfg.Servers)
	cn.serverLs = make([]net.Listener, cfg.Servers)
	cn.serverCfgs = make([]mixnet.Config, cfg.Servers)
	cn.serverStatePaths = make([]string, cfg.Servers)
	cn.ServerAddrs = make([]string, cfg.Servers)
	for i := 0; i < cfg.Servers; i++ {
		cn.ServerAddrs[i] = fmt.Sprintf("server-%d", i)
	}
	for i := cfg.Servers - 1; i >= 0; i-- {
		mc := mixnet.Config{
			Position:  i,
			ChainPubs: pubs,
			Priv:      privs[i],
			Workers:   cfg.Workers,
		}
		if i == cfg.Servers-1 {
			if cfg.Shards > 0 {
				mc.Net = cfg.ShardDialNet
				mc.ShardAddrs = cn.ShardAddrs
				mc.ShardPubs = cn.ShardPubs
				mc.ShardTimeout = cfg.ShardTimeout
				mc.ShardPolicy = cfg.ShardPolicy
				mc.OnShardDegraded = cfg.OnShardDegraded
			}
			// Every round number that reaches the exchange lands in the
			// harness's round log — the matrix's "never repeats on the
			// wire" assertion reads it back via ExchangedRounds. The
			// caller's observer (the eval harness's adversary tap) is
			// chained after it.
			mc.ConvoObserver = func(round uint64, m1, m2, more int) {
				cn.roundMu.Lock()
				cn.rounds = append(cn.rounds, round)
				cn.roundMu.Unlock()
				if cfg.ConvoObserver != nil {
					cfg.ConvoObserver(round, m1, m2, more)
				}
			}
		} else {
			mc.Net = cfg.Net
			mc.NextAddr = cn.ServerAddrs[i+1]
			if cn.noisyServer(i) {
				if cfg.ConvoNoise != nil {
					mc.ConvoNoise = cfg.ConvoNoise
					mc.NoiseSrc = cfg.NoiseSrc
				} else if cfg.Mu > 0 {
					mc.ConvoNoise = noise.Fixed{N: cfg.Mu}
				}
			}
		}
		if cfg.StateDir != "" {
			cn.serverStatePaths[i] = filepath.Join(cfg.StateDir, fmt.Sprintf("server-%d.rounds", i))
			store, err := roundstate.OpenCounters(cn.serverStatePaths[i])
			if err != nil {
				cn.Close()
				return nil, err
			}
			mc.RoundState = store
		}
		cn.serverCfgs[i] = mc
		if err := cn.startServer(i); err != nil {
			cn.Close()
			return nil, err
		}
	}

	// The entry server.
	cc := coordinator.Config{
		Net:           cfg.Net,
		ChainAddr:     cn.ServerAddrs[0],
		ChainPub:      pubs[0],
		SubmitTimeout: cfg.SubmitTimeout,
		ConvoWindow:   cfg.ConvoWindow,
	}
	var frontPub box.PublicKey
	if cfg.Frontends > 0 {
		pub, priv, err := box.GenerateKey(nil)
		if err != nil {
			cn.Close()
			return nil, err
		}
		frontPub = pub
		cc.FrontIdentity = priv
		cn.FrontPipeAddr = "entry-front"
	}
	if cfg.StateDir != "" {
		cn.entryStatePath = filepath.Join(cfg.StateDir, "entry.rounds")
		store, err := roundstate.OpenCounters(cn.entryStatePath)
		if err != nil {
			cn.Close()
			return nil, err
		}
		cc.RoundState = store
	}
	cn.coordCfg = cc
	if err := cn.startEntry(); err != nil {
		cn.Close()
		return nil, err
	}

	// The entry frontends, each holding its own slice of the clients.
	for i := 0; i < cfg.Frontends; i++ {
		cn.frontCfgs = append(cn.frontCfgs, frontend.Config{
			Net:            cfg.Net,
			CoordAddr:      cn.FrontPipeAddr,
			CoordPub:       frontPub,
			ReconnectDelay: 50 * time.Millisecond,
		})
		cn.FrontAddrs = append(cn.FrontAddrs, fmt.Sprintf("front-%d", i))
		cn.Fronts = append(cn.Fronts, nil)
		cn.frontLs = append(cn.frontLs, nil)
		cn.frontCancels = append(cn.frontCancels, nil)
		if err := cn.startFrontend(i); err != nil {
			cn.Close()
			return nil, err
		}
	}
	return cn, nil
}

// startFrontend boots frontend i from its recorded config.
func (cn *ChainNet) startFrontend(i int) error {
	fe, err := frontend.New(cn.frontCfgs[i])
	if err != nil {
		return err
	}
	l, err := cn.cfg.Net.Listen(cn.FrontAddrs[i])
	if err != nil {
		fe.Close()
		return err
	}
	go fe.Serve(l)
	ctx, cancel := context.WithCancel(context.Background())
	go fe.Run(ctx)
	cn.Fronts[i] = fe
	cn.frontLs[i] = l
	cn.frontCancels[i] = cancel
	return nil
}

// startShard boots shard i from its recorded config.
func (cn *ChainNet) startShard(i int) error {
	ss, err := mixnet.NewShardServer(cn.shardCfgs[i])
	if err != nil {
		return err
	}
	l, err := cn.cfg.Net.Listen(cn.ShardAddrs[i])
	if err != nil {
		return err
	}
	go ss.Serve(l)
	cn.Shards[i] = ss
	cn.shardLs[i] = l
	return nil
}

// startServer boots chain server i from its recorded config.
func (cn *ChainNet) startServer(i int) error {
	srv, err := mixnet.NewServer(cn.serverCfgs[i])
	if err != nil {
		return err
	}
	l, err := cn.cfg.Net.Listen(cn.ServerAddrs[i])
	if err != nil {
		srv.Close()
		return err
	}
	go srv.Serve(l)
	cn.Servers[i] = srv
	cn.serverLs[i] = l
	return nil
}

// startEntry boots the coordinator from its recorded config, including
// its frontend-pipe listener when the net runs a frontend tier.
func (cn *ChainNet) startEntry() error {
	co, err := coordinator.New(cn.coordCfg)
	if err != nil {
		return err
	}
	l, err := cn.cfg.Net.Listen(cn.EntryAddr)
	if err != nil {
		co.Close()
		return err
	}
	go co.Serve(l)
	if cn.FrontPipeAddr != "" {
		fl, err := cn.cfg.Net.Listen(cn.FrontPipeAddr)
		if err != nil {
			l.Close()
			co.Close()
			return err
		}
		go co.ServeFrontends(fl)
		cn.frontPipeL = fl
	}
	cn.Coord = co
	cn.entryL = l
	return nil
}

// noisyServer reports whether chain position i should add conversation
// noise under cfg.NoisyServers (nil = every mixing server).
func (cn *ChainNet) noisyServer(i int) bool {
	if cn.cfg.NoisyServers == nil {
		return true
	}
	for _, p := range cn.cfg.NoisyServers {
		if p == i {
			return true
		}
	}
	return false
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

// KillServer simulates chain server i crashing: its listener and every
// connection are severed and its round-state lock is released (a real
// process death releases the flock implicitly). The node stays down
// until RestartServer.
func (cn *ChainNet) KillServer(i int) {
	if i < 0 || i >= len(cn.Servers) || cn.Servers[i] == nil {
		return
	}
	cn.serverLs[i].Close()
	cn.Servers[i].Close()
	cn.Servers[i] = nil
	if st := cn.serverCfgs[i].RoundState; st != nil {
		st.Close()
	}
}

// RestartServer simulates chain server i crashing (if still up) and a
// fresh process taking over on the same address with the same key,
// re-reading its round state from disk when the net was built with
// StateDir. The new listener is up before the old connections are
// severed, so a peer's redial after noticing the crash lands on the
// replacement — the worst case for replay, since the retry of an
// in-flight round reaches a server that must refuse it from the durable
// counter.
func (cn *ChainNet) RestartServer(i int) error {
	if i < 0 || i >= len(cn.Servers) {
		return fmt.Errorf("sim: no server %d to restart", i)
	}
	old := cn.Servers[i]
	if old != nil {
		// Stop accepting on the old address first so the replacement can
		// bind; existing connections stay up until the kill below.
		cn.serverLs[i].Close()
	}
	mc := cn.serverCfgs[i]
	if cn.serverStatePaths[i] != "" {
		// A real restart re-reads the file; reusing the old in-memory
		// store would hide a counter that never hit the disk.
		if mc.RoundState != nil {
			mc.RoundState.Close()
		}
		store, err := roundstate.OpenCounters(cn.serverStatePaths[i])
		if err != nil {
			return err
		}
		mc.RoundState = store
		cn.serverCfgs[i] = mc
	}
	if err := cn.startServer(i); err != nil {
		return err
	}
	if old != nil {
		old.Close()
	}
	return nil
}

// KillShard simulates shard i crashing, like KillServer.
func (cn *ChainNet) KillShard(i int) {
	if i < 0 || i >= len(cn.Shards) || cn.Shards[i] == nil {
		return
	}
	cn.shardLs[i].Close()
	cn.Shards[i].Close()
	cn.Shards[i] = nil
	if st := cn.shardCfgs[i].RoundState; st != nil {
		st.Close()
	}
}

// RestartShard simulates shard i crashing (if still up) and a fresh
// process taking over, resuming its durable counter when the net was
// built with StateDir.
func (cn *ChainNet) RestartShard(i int) error {
	if i < 0 || i >= len(cn.Shards) {
		return fmt.Errorf("sim: no shard %d to restart", i)
	}
	old := cn.Shards[i]
	if old != nil {
		cn.shardLs[i].Close()
	}
	sc := cn.shardCfgs[i]
	if cn.shardStatePaths[i] != "" {
		if sc.RoundState != nil {
			sc.RoundState.Close()
		}
		store, err := roundstate.Open(cn.shardStatePaths[i])
		if err != nil {
			return err
		}
		sc.RoundState = store
		cn.shardCfgs[i] = sc
	}
	if err := cn.startShard(i); err != nil {
		return err
	}
	if old != nil {
		old.Close()
	}
	return nil
}

// KillEntry simulates the coordinator crashing: every client and chain
// connection is severed and its round-state lock is released. Clients
// (and any in-flight round) observe the death; RestartEntry brings a
// fresh process up on the same address.
func (cn *ChainNet) KillEntry() {
	if cn.Coord == nil {
		return
	}
	cn.entryL.Close()
	if cn.frontPipeL != nil {
		cn.frontPipeL.Close()
		cn.frontPipeL = nil
	}
	cn.Coord.Close()
	cn.Coord = nil // killed nodes are nil, as in the server/shard slots
	if st := cn.coordCfg.RoundState; st != nil {
		st.Close()
	}
}

// KillFrontend simulates entry frontend i crashing: its clients and its
// coordinator pipe are severed. Frontends hold zero round state, so
// RestartFrontend needs no disk — a fresh process on the same address
// rejoins the deployment at the next round.
func (cn *ChainNet) KillFrontend(i int) {
	if i < 0 || i >= len(cn.Fronts) || cn.Fronts[i] == nil {
		return
	}
	cn.frontCancels[i]()
	cn.frontLs[i].Close()
	cn.Fronts[i].Close()
	cn.Fronts[i] = nil
}

// RestartFrontend simulates frontend i crashing (if still up) and a
// fresh stateless process taking over on the same address.
func (cn *ChainNet) RestartFrontend(i int) error {
	if i < 0 || i >= len(cn.Fronts) {
		return fmt.Errorf("sim: no frontend %d to restart", i)
	}
	cn.KillFrontend(i)
	return cn.startFrontend(i)
}

// RestartEntry simulates the coordinator crashing (if still up) and a
// fresh entry process starting on the same address. With a StateDir the
// replacement resumes round numbering from disk; without one it starts
// over at round 1 — the control case a durable chain rejects. Running
// frontends notice the dead pipe and reconnect to the replacement on
// their own.
func (cn *ChainNet) RestartEntry() error {
	if cn.Coord != nil {
		cn.entryL.Close()
		if cn.frontPipeL != nil {
			cn.frontPipeL.Close()
			cn.frontPipeL = nil
		}
	}
	cc := cn.coordCfg
	if cn.entryStatePath != "" {
		if cc.RoundState != nil {
			cc.RoundState.Close()
		}
		store, err := roundstate.OpenCounters(cn.entryStatePath)
		if err != nil {
			return err
		}
		cc.RoundState = store
		cn.coordCfg = cc
	}
	old := cn.Coord
	cn.Coord = nil
	if err := cn.startEntry(); err != nil {
		return err
	}
	if old != nil {
		old.Close()
	}
	return nil
}

// Close shuts every node down and releases every round-state lock.
func (cn *ChainNet) Close() {
	for i := range cn.Fronts {
		cn.KillFrontend(i)
	}
	if cn.Coord != nil {
		cn.entryL.Close()
		if cn.frontPipeL != nil {
			cn.frontPipeL.Close()
		}
		cn.Coord.Close()
	}
	if st := cn.coordCfg.RoundState; st != nil {
		st.Close()
	}
	for i, srv := range cn.Servers {
		if srv != nil {
			cn.serverLs[i].Close()
			srv.Close()
		}
	}
	for _, mc := range cn.serverCfgs {
		if mc.RoundState != nil {
			mc.RoundState.Close()
		}
	}
	for i, ss := range cn.Shards {
		if ss != nil {
			cn.shardLs[i].Close()
			ss.Close()
		}
	}
	for _, sc := range cn.shardCfgs {
		if sc.RoundState != nil {
			sc.RoundState.Close()
		}
	}
}

// clientReply pairs a delivered reply with the client that received it.
type clientReply struct {
	client int
	round  uint64
}

// clientAddrs returns where fresh clients should connect: the live
// frontends round-robin when the net runs a frontend tier, otherwise
// the coordinator directly.
func (cn *ChainNet) clientAddrs() []string {
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

// connectedClients sums clients across the coordinator and the live
// frontends.
func (cn *ChainNet) connectedClients() int {
	total := 0
	if cn.Coord != nil {
		total += cn.Coord.NumClients()
	}
	for _, fe := range cn.Fronts {
		if fe != nil {
			total += fe.NumClients()
		}
	}
	return total
}

// RunRounds drives n conversation rounds through the entry tier with
// `clients` fresh loopback clients, each answering every announcement
// with an indistinguishable fake request (exactly what an idle
// production client sends). Clients connect round-robin across the live
// frontends when the net was built with a frontend tier, directly to
// the coordinator otherwise. It fails unless every announced round
// completes with every client participating and every client receives
// every round's reply; it returns the delivered round numbers in
// delivery order. Rounds run through the coordinator's pipeline when
// the net was built with ConvoWindow > 1.
func (cn *ChainNet) RunRounds(clients, n int) ([]uint64, error) {
	conns := make([]*wire.Conn, 0, clients)
	var wg sync.WaitGroup
	replyCh := make(chan clientReply, clients*(n+1))
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
		wg.Wait()
	}
	addrs := cn.clientAddrs()
	for i := 0; i < clients; i++ {
		raw, err := cn.cfg.Net.Dial(addrs[i%len(addrs)])
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("sim: dialing entry tier: %w", err)
		}
		conn := wire.NewConn(raw)
		conns = append(conns, conn)
		wg.Add(1)
		go func(idx int, conn *wire.Conn) {
			defer wg.Done()
			for {
				msg, err := conn.Recv()
				if err != nil {
					return
				}
				if msg.Proto != wire.ProtoConvo {
					continue
				}
				switch msg.Kind {
				case wire.KindAnnounce:
					req, err := convo.BuildRequest(nil, msg.Round, nil, nil)
					if err != nil {
						return
					}
					o, _, err := onion.Wrap(req.Marshal(), msg.Round, 0, cn.Pubs, nil)
					if err != nil {
						return
					}
					if err := conn.Send(&wire.Message{
						Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: msg.Round, Body: [][]byte{o},
					}); err != nil {
						return
					}
				case wire.KindReply:
					replyCh <- clientReply{idx, msg.Round}
				}
			}
		}(i, conn)
	}

	deadline := time.Now().Add(5 * time.Second)
	for cn.connectedClients() != clients {
		if time.Now().After(deadline) {
			closeAll()
			return nil, fmt.Errorf("sim: %d of %d clients registered", cn.connectedClients(), clients)
		}
		time.Sleep(time.Millisecond)
	}
	// With a frontend tier, every live frontend's pipe must be up before
	// the first announcement, or its clients miss the round.
	live := 0
	for _, fe := range cn.Fronts {
		if fe != nil {
			live++
		}
	}
	for cn.Coord.NumFrontends() != live {
		if time.Now().After(deadline) {
			closeAll()
			return nil, fmt.Errorf("sim: %d of %d frontend pipes connected", cn.Coord.NumFrontends(), live)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	participants, err := cn.Coord.RunConvoRounds(ctx, n)
	if err != nil {
		closeAll()
		return nil, err
	}
	if len(participants) != n {
		closeAll()
		return nil, fmt.Errorf("sim: %d rounds completed, want %d", len(participants), n)
	}
	for r, p := range participants {
		if p != clients {
			closeAll()
			return nil, fmt.Errorf("sim: round %d of the batch had %d participants, want %d", r+1, p, clients)
		}
	}

	// Fanout is asynchronous: wait for every client's reply to every
	// round before tearing the clients down.
	var delivered []uint64
	need := clients * n
	timer := time.NewTimer(10 * time.Second)
	defer timer.Stop()
	for need > 0 {
		select {
		case r := <-replyCh:
			if r.client == 0 {
				delivered = append(delivered, r.round)
			}
			need--
		case <-timer.C:
			closeAll()
			return nil, fmt.Errorf("sim: timed out waiting for replies (%d outstanding)", need)
		}
	}
	closeAll()
	return delivered, nil
}

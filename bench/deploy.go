package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
)

// readyTimeout bounds how long a fresh deployment may take to register
// every generator connection and frontend pipe.
const readyTimeout = 5 * time.Second

// dialNoise is the fixed per-bucket dialing noise of workloads that run
// the dialing protocol.
const dialNoise = 5

// Listen addresses on the in-memory network. The traced network names
// legs after the address dialled, so these are also the leg names in
// trace-*.json.
const (
	entryAddr     = "entry"
	frontPipeAddr = "entry-front"
)

func serverAddr(i int) string { return fmt.Sprintf("server-%d", i) }
func shardAddr(i int) string  { return fmt.Sprintf("shard-%d", i) }
func frontAddr(i int) string  { return fmt.Sprintf("front-%d", i) }

// keys holds every long-term key of a deployment. They are derived from
// the seed (not mixnet.NewChainKeys) so the onions pre-built for one seed
// are the same bytes on every run, and stay valid across the fresh
// deployments of a run's cycles.
type keys struct {
	pubs       []box.PublicKey
	privs      []box.PrivateKey
	shardPubs  []box.PublicKey
	shardPrivs []box.PrivateKey
	frontPub   box.PublicKey
	frontPriv  box.PrivateKey
}

// seededKey derives the key pair labelled (label, i) under seed.
func seededKey(seed int64, label string, i int) (box.PublicKey, box.PrivateKey) {
	return box.KeyPairFromSeed(seedBytes(seed, label, i))
}

// seedBytes is the 32-byte derivation of (seed, label, i) every seeded
// input of the benchmark starts from.
func seedBytes(seed int64, label string, i int) []byte {
	h := sha256.New()
	var n [16]byte
	binary.BigEndian.PutUint64(n[:8], uint64(seed))
	binary.BigEndian.PutUint64(n[8:], uint64(i))
	h.Write(n[:])
	h.Write([]byte(label))
	return h.Sum(nil)
}

// newKeys derives a deployment's long-term keys from the seed.
func newKeys(seed int64, shards int) *keys {
	k := &keys{}
	for i := 0; i < chainServers; i++ {
		pub, priv := seededKey(seed, "server", i)
		k.pubs, k.privs = append(k.pubs, pub), append(k.privs, priv)
	}
	for i := 0; i < shards; i++ {
		pub, priv := seededKey(seed, "shard", i)
		k.shardPubs, k.shardPrivs = append(k.shardPubs, pub), append(k.shardPrivs, priv)
	}
	k.frontPub, k.frontPriv = seededKey(seed, "front-pipe", 0)
	return k
}

// deployConfig is what newDeployment needs beyond the workload's shape.
type deployConfig struct {
	w    workload
	keys *keys
	// net is the network every role listens on and dials through: a
	// transport.Mem, or the traced wrapper around one.
	net transport.Network
	// clients is the number of generator connections the deployment must
	// register before it is ready.
	clients int
	// exchanges is coordinator.Config.ConvoExchanges: the onions each
	// generator connection submits per round.
	exchanges int
	// stateRoot is the directory under which a durable deployment creates
	// (and on Close removes) its round-state directory.
	stateRoot string
}

// deployment is one running, fully networked Vuvuzela deployment built
// from the roles' public constructors: every chain server, shard,
// coordinator and frontend is its own listener on the shared network and
// talks to its peers only through transport.Secure legs, as the real
// binaries do over TCP.
type deployment struct {
	cfg    deployConfig
	coord  *coordinator.Coordinator
	fronts []*frontend.Frontend
	// buckets receives the last server's dialing buckets (nil without
	// the dialing protocol).
	buckets *cdn.Store
	// clientAddrs is where generator connections go: the frontends when
	// the workload has them, otherwise the coordinator.
	clientAddrs []string

	// closers undo construction; Close runs them newest first, which is
	// the order frontends → coordinator → chain head…tail → shards →
	// round-state files → state directory.
	closers []func()
	// wg counts the Serve and Run goroutines newDeployment started.
	wg sync.WaitGroup
}

// newDeployment brings a deployment up and fails fast: any constructor
// or listener error tears down what was built and is returned.
func newDeployment(cfg deployConfig) (*deployment, error) {
	d := &deployment{cfg: cfg}
	if err := d.build(); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) build() error {
	w, k := d.cfg.w, d.cfg.keys
	stateDir := ""
	if w.durable {
		dir, err := os.MkdirTemp(d.cfg.stateRoot, "state-")
		if err != nil {
			return fmt.Errorf("bench: creating round-state dir: %w", err)
		}
		stateDir = dir
		d.closers = append(d.closers, func() { os.RemoveAll(dir) })
	}

	var shardAddrs []string
	for i := 0; i < w.shards; i++ {
		sc := mixnet.ShardConfig{
			Index: i, NumShards: w.shards, Workers: w.workers,
			Identity:   k.shardPrivs[i],
			Authorized: []box.PublicKey{k.pubs[chainServers-1]},
		}
		if stateDir != "" {
			store, err := roundstate.Open(filepath.Join(stateDir, fmt.Sprintf("shard-%d.round", i)))
			if err != nil {
				return err
			}
			d.closers = append(d.closers, func() { store.Close() })
			sc.RoundState = store
		}
		ss, err := mixnet.NewShardServer(sc)
		if err != nil {
			return err
		}
		d.closers = append(d.closers, func() { ss.Close() })
		if err := d.serve(shardAddr(i), ss.Serve); err != nil {
			return err
		}
		shardAddrs = append(shardAddrs, shardAddr(i))
	}

	if w.dial {
		d.buckets = cdn.NewStore(0)
	}
	for i := chainServers - 1; i >= 0; i-- {
		mc := mixnet.Config{
			Position: i, ChainPubs: k.pubs, Priv: k.privs[i],
			Workers: w.workers, Net: d.cfg.net,
		}
		if w.dial {
			mc.DialNoise = noise.Fixed{N: dialNoise}
		}
		if i == chainServers-1 {
			mc.ShardAddrs, mc.ShardPubs = shardAddrs, k.shardPubs
			if d.buckets != nil {
				mc.Buckets = d.buckets
			}
		} else {
			mc.NextAddr = serverAddr(i + 1)
			mc.ConvoNoise = noise.Fixed{N: w.mu}
		}
		if stateDir != "" {
			store, err := roundstate.OpenCounters(filepath.Join(stateDir, fmt.Sprintf("server-%d.rounds", i)))
			if err != nil {
				return err
			}
			d.closers = append(d.closers, func() { store.Close() })
			mc.RoundState = store
		}
		srv, err := mixnet.NewServer(mc)
		if err != nil {
			return err
		}
		d.closers = append(d.closers, func() { srv.Close() })
		if err := d.serve(serverAddr(i), srv.Serve); err != nil {
			return err
		}
	}

	cc := coordinator.Config{
		Net: d.cfg.net, ChainAddr: serverAddr(0), ChainPub: k.pubs[0],
		ConvoExchanges: uint32(d.cfg.exchanges),
		DialBuckets:    1,
	}
	if w.frontends > 0 {
		cc.FrontIdentity = k.frontPriv
	}
	if stateDir != "" {
		store, err := roundstate.OpenCounters(filepath.Join(stateDir, "entry.rounds"))
		if err != nil {
			return err
		}
		d.closers = append(d.closers, func() { store.Close() })
		cc.RoundState = store
	}
	co, err := coordinator.New(cc)
	if err != nil {
		return err
	}
	d.coord = co
	d.closers = append(d.closers, func() { co.Close() })
	if err := d.serve(entryAddr, co.Serve); err != nil {
		return err
	}
	d.clientAddrs = []string{entryAddr}
	if w.frontends == 0 {
		return nil
	}

	if err := d.serve(frontPipeAddr, co.ServeFrontends); err != nil {
		return err
	}
	d.clientAddrs = nil
	for i := 0; i < w.frontends; i++ {
		fe, err := frontend.New(frontend.Config{
			Net: d.cfg.net, CoordAddr: frontPipeAddr, CoordPub: k.frontPub,
			ReconnectDelay: 20 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		d.fronts = append(d.fronts, fe)
		ctx, cancel := context.WithCancel(context.Background())
		d.closers = append(d.closers, func() { cancel(); fe.Close() })
		if err := d.serve(frontAddr(i), fe.Serve); err != nil {
			cancel()
			return err
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			fe.Run(ctx)
		}()
		d.clientAddrs = append(d.clientAddrs, frontAddr(i))
	}
	return nil
}

// serve binds addr and runs a role's accept loop on it until Close.
func (d *deployment) serve(addr string, loop func(net.Listener) error) error {
	l, err := d.cfg.net.Listen(addr)
	if err != nil {
		return err
	}
	d.closers = append(d.closers, func() { l.Close() })
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		// The loop's error is the listener closing under it, which is how
		// Close stops it.
		_ = loop(l)
	}()
	return nil
}

// waitReady blocks until every generator connection is registered and,
// with a frontend tier, every frontend's pipe is up — a round announced
// earlier would miss them.
func (d *deployment) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		clients := d.coord.NumClients()
		for _, fe := range d.fronts {
			clients += fe.NumClients()
		}
		pipes := d.coord.NumFrontends()
		if clients == d.cfg.clients && pipes == len(d.fronts) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: deployment not ready after %v: %d of %d client connections, %d of %d frontend pipes",
				readyTimeout, clients, d.cfg.clients, pipes, len(d.fronts))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close tears the deployment down in dependency order, waits for the
// goroutines newDeployment started, and removes the round-state
// directory. Safe on a partially built deployment.
func (d *deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
	d.wg.Wait()
}

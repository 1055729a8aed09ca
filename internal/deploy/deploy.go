// Package deploy is the one mapping from a chain descriptor — the trust
// root, "the chain of servers, along with each server's public key, is
// known to clients ahead of time" (paper §3) — to a running chain server,
// dead-drop shard, entry server (§7) or entry frontend. The role binaries
// and the in-process harness (sim.ChainNet) boot every role through it,
// and Generate is vuvuzela-keygen chain's generator, so the suites run the
// wiring an operator runs over another transport.
//
// A role function takes the descriptor, the role's key or index, the
// network it dials over and a template of the role's Config holding its
// flags or a harness's hooks. It checks the key against the descriptor,
// fills in every field the descriptor determines, and returns a Role. A
// server's key is its place: its public half names the one chain server
// or shard of the descriptor the process runs.
package deploy

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/config"
	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/frontend"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
)

// Role is one process of a deployment, placed by the descriptor.
type Role struct {
	// Name says which process of the descriptor Server found for its
	// key ("chain server 1/3", "dead-drop shard 0/2"), for the start-up
	// line; the other roles' functions leave it empty.
	Name string
	// Addrs are the addresses the process listens on, the first naming
	// it; Boot takes one listener per address, in this order.
	Addrs []string
	// Boot serves the process on ls with its round state (nil = in
	// memory only). It returns the process — a *mixnet.Server,
	// *mixnet.ShardServer, *coordinator.Coordinator or *frontend.Frontend,
	// whose Close leaves ls to the caller — and a channel receiving the
	// result of each listener's serve loop that ends.
	Boot func(state *roundstate.Counters, ls []net.Listener) (io.Closer, <-chan error, error)
}

// Listen binds one listener on nw per address, closing those already
// bound if one fails.
func Listen(nw transport.Network, addrs []string) ([]net.Listener, error) {
	ls := make([]net.Listener, 0, len(addrs))
	for _, addr := range addrs {
		l, err := nw.Listen(addr)
		if err != nil {
			for _, l := range ls {
				l.Close()
			}
			return nil, err
		}
		ls = append(ls, l)
	}
	return ls, nil
}

// serve runs loops[i] on ls[i], each in a goroutine of its own, and
// returns the channel their results arrive on.
func serve(ls []net.Listener, loops ...func(net.Listener) error) <-chan error {
	done := make(chan error, len(ls))
	for i, l := range ls {
		go func() { done <- loops[i](l) }()
	}
	return done
}

// Noise is one protocol's cover-traffic distribution: Laplace(µ, b)
// truncated at zero (Algorithm 2 step 2) or, when fixed, exactly µ — the
// paper's evaluation mode (§8.1; vuvuzela-server -fixed-noise).
func Noise(mu, b float64, fixed bool) noise.Distribution {
	if fixed {
		return noise.Fixed{N: int(mu)}
	}
	return noise.Laplace{Mu: mu, B: b}
}

// publicKey is key's public half, as the descriptor lists it.
func publicKey(key *config.ServerKey) config.Key {
	priv := box.PrivateKey(key.PrivateKey)
	return config.Key(box.PublicKeyOf(&priv))
}

// Server is the process of c that key names (vuvuzela-server): the chain
// server or dead-drop shard whose public key in c is key's public half.
// Validate refuses a key listed twice, so the key alone places the
// process; a key c lists for neither is refused.
//
// A chain server takes opts (-workers, -shard-timeout, -shard-policy) and
// is filled in with its position, the chain's keys, key's private half,
// nw and the successor's address; on the last server the shards'
// addresses and keys and, when c names a cdn_addr, an invitation CDN
// served there. A noise distribution opts leaves nil draws c's µ and b,
// exactly µ when fixedNoise. A shard takes none of opts, nw and
// fixedNoise (see shard).
func Server(c *config.Chain, key *config.ServerKey, nw transport.Network, opts mixnet.Config, fixedNoise bool) (Role, error) {
	pub := publicKey(key)
	has := func(s config.Server) bool { return s.PublicKey == pub }
	if i := slices.IndexFunc(c.Shards, has); i >= 0 {
		return shard(c, i, key), nil
	}
	pos := slices.IndexFunc(c.Servers, has)
	if pos < 0 {
		return Role{}, errors.New("deploy: the key is not in chain.json: its public half is no chain server's or shard's")
	}
	opts.Position, opts.ChainPubs, opts.Priv, opts.Net = pos, c.PublicKeys(), box.PrivateKey(key.PrivateKey), nw
	opts.ConvoNoise = cmp.Or(opts.ConvoNoise, Noise(c.ConvoNoiseMu, c.ConvoNoiseB, fixedNoise))
	opts.DialNoise = cmp.Or(opts.DialNoise, Noise(c.DialNoiseMu, c.DialNoiseB, fixedNoise))
	name, addrs := fmt.Sprintf("chain server %d/%d", pos, len(c.Servers)), []string{c.Servers[pos].Addr}
	if pos < len(c.Servers)-1 {
		opts.NextAddr = c.Servers[pos+1].Addr
	} else {
		opts.ShardAddrs, opts.ShardPubs = c.ShardAddrs(), c.ShardKeys()
		name += fmt.Sprintf(" (last, %d dead-drop shards)", len(c.Shards))
		if c.CDNAddr() != "" {
			addrs = append(addrs, c.CDNAddr())
		}
	}
	return Role{Name: name, Addrs: addrs, Boot: func(state *roundstate.Counters, ls []net.Listener) (io.Closer, <-chan error, error) {
		cfg := opts
		cfg.RoundState = state
		store := cdn.NewStore(0) // a restarted process's CDN starts empty
		cfg.Buckets = store
		srv, err := mixnet.NewServer(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy: chain server %d: %w", pos, err)
		}
		return srv, serve(ls, srv.Serve, func(l net.Listener) error { return srv.ServeBuckets(l, store.Handle) }), nil
	}}, nil
}

// shard is Server for dead-drop shard i of c: it fills in the index, the
// shard count, key's private half and, as the one key allowed to drive
// its rounds, the last chain server's.
func shard(c *config.Chain, i int, key *config.ServerKey) Role {
	cfg := mixnet.ShardConfig{
		Index: i, NumShards: len(c.Shards), Identity: box.PrivateKey(key.PrivateKey),
		Authorized: []box.PublicKey{box.PublicKey(c.Servers[len(c.Servers)-1].PublicKey)},
	}
	name := fmt.Sprintf("dead-drop shard %d/%d", i, len(c.Shards))
	return Role{Name: name, Addrs: []string{c.Shards[i].Addr}, Boot: func(state *roundstate.Counters, ls []net.Listener) (io.Closer, <-chan error, error) {
		cfg := cfg
		cfg.RoundState = state
		ss, err := mixnet.NewShardServer(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy: shard %d: %w", i, err)
		}
		return ss, serve(ls, ss.Serve), nil
	}}
}

// Entry is the entry server of c (vuvuzela-entry; opts holds
// -submit-timeout, -convo-window). It fills in nw, the chain head's
// address and key and c's dialing bucket count; when c names a frontend
// pipe, key is the pipe's identity, refused unless it is entry_front_key's
// private half. Boot serves clients, and frontends on the pipe's address.
func Entry(c *config.Chain, key *config.ServerKey, nw transport.Network, opts coordinator.Config) (Role, error) {
	opts.Net, opts.ChainAddr, opts.ChainPub = nw, c.Servers[0].Addr, box.PublicKey(c.Servers[0].PublicKey)
	opts.DialBuckets = c.DialBuckets
	addrs := []string{c.EntryAddr}
	if c.EntryFrontAddr != "" {
		if key == nil {
			return Role{}, fmt.Errorf("deploy: the chain descriptor names a frontend pipe on %s, and the entry has no key for it", c.EntryFrontAddr)
		}
		if publicKey(key) != c.EntryFrontKey {
			return Role{}, errors.New("deploy: the key is not the entry's pipe key (entry_front_key): its public half does not match the chain descriptor")
		}
		opts.FrontIdentity = box.PrivateKey(key.PrivateKey)
		addrs = append(addrs, c.EntryFrontAddr)
	}
	return Role{Addrs: addrs, Boot: func(state *roundstate.Counters, ls []net.Listener) (io.Closer, <-chan error, error) {
		cfg := opts
		cfg.RoundState = state
		co, err := coordinator.New(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy: entry: %w", err)
		}
		return co, serve(ls, co.Serve, co.ServeFrontends), nil
	}}, nil
}

// Frontend is entry frontend index of c (vuvuzela-frontend; opts holds
// -max-clients), listening at that entry of c's frontends list. It fills
// in nw and the entry's pipe address and key. Boot serves clients and
// keeps the pipe up until the frontend closes; it holds no round state.
func Frontend(c *config.Chain, index int, nw transport.Network, opts frontend.Config) (Role, error) {
	switch {
	case c.EntryFrontAddr == "":
		return Role{}, errors.New("deploy: the chain descriptor has no entry_front_addr; regenerate it with vuvuzela-keygen chain -frontends N")
	case index < 0 || index >= len(c.Frontends):
		return Role{}, fmt.Errorf("deploy: frontend index %d out of range: the chain descriptor lists %d frontends", index, len(c.Frontends))
	}
	opts.Net, opts.CoordAddr, opts.CoordPub = nw, c.EntryFrontAddr, box.PublicKey(c.EntryFrontKey)
	return Role{Addrs: []string{c.Frontends[index]}, Boot: func(_ *roundstate.Counters, ls []net.Listener) (io.Closer, <-chan error, error) {
		fe, err := frontend.New(opts)
		if err != nil {
			return nil, nil, fmt.Errorf("deploy: frontend %d: %w", index, err)
		}
		go fe.Run(context.Background()) // until fe.Close
		return fe, serve(ls, fe.Serve), nil
	}}, nil
}

// Layout is the shape of a deployment to generate: vuvuzela-keygen
// chain's flags.
type Layout struct {
	Servers         int     // chain length
	Shards          int     // networked dead-drop shards behind the last server (0 = in-process exchange)
	Frontends       int     // entry frontends (0 = clients connect to the entry, which then holds no key)
	Host            string  // the host of every address
	BasePort        int     // server 0's port; Generate lays the others out from it
	ConvoMu, ConvoB float64 // each mixing server's conversation noise
	DialMu, DialB   float64 // the per-bucket dialing noise
	DialBuckets     uint32  // the invitation dead-drop count m
}

// Defaults is vuvuzela-keygen chain's defaults: three servers from
// 127.0.0.1:2719, the paper's conversation noise (µ = 300,000, b = 13,800,
// §8.1) and its dialing µ = 13,000 at b = 770 (see
// vuvuzela.DefaultDialNoise), one invitation dead drop.
var Defaults = Layout{
	Servers: 3, Host: "127.0.0.1", BasePort: 2719,
	ConvoMu: 300000, ConvoB: 13800, DialMu: 13000, DialB: 770, DialBuckets: 1,
}

// Keys are a generated deployment's private keys, one key file each.
type Keys struct {
	Servers []config.ServerKey // server-<i>.key, by position
	Shards  []config.ServerKey // shard-<i>.key, by index
	Entry   *config.ServerKey  // entry.key, the frontend pipe's; nil without frontends
}

// Generate draws fresh keys for l and lays its addresses out on l.Host:
// server i at BasePort+i, the last server's CDN at BasePort+Servers, the
// shards on the ports above it, then the frontends; the entry takes
// BasePort−1 and, with frontends, its pipe BasePort−2. The chain it
// returns has passed Validate — the check LoadChain applies to every
// read — so a bad layout fails here, not at the first round.
func Generate(l Layout) (*config.Chain, *Keys, error) {
	addr := func(port int) string { return fmt.Sprintf("%s:%d", l.Host, port) }
	// keyed generates n key pairs listening from port up.
	keyed := func(n, port int) ([]config.Server, []config.ServerKey, error) {
		var servers []config.Server
		var keys []config.ServerKey
		for i := range n {
			pub, priv, err := box.GenerateKey(nil)
			if err != nil {
				return nil, nil, err
			}
			servers = append(servers, config.Server{Addr: addr(port + i), PublicKey: config.Key(pub)})
			keys = append(keys, config.ServerKey{PrivateKey: config.Key(priv)})
		}
		return servers, keys, nil
	}

	c := &config.Chain{
		EntryAddr:    addr(l.BasePort - 1),
		ConvoNoiseMu: l.ConvoMu, ConvoNoiseB: l.ConvoB,
		DialNoiseMu: l.DialMu, DialNoiseB: l.DialB,
		DialBuckets: l.DialBuckets,
	}
	keys := &Keys{}
	var err error
	if c.Servers, keys.Servers, err = keyed(l.Servers, l.BasePort); err != nil {
		return nil, nil, err
	}
	if l.Servers > 0 {
		c.Servers[l.Servers-1].CDNAddr = addr(l.BasePort + l.Servers)
	}
	if c.Shards, keys.Shards, err = keyed(l.Shards, l.BasePort+l.Servers+1); err != nil {
		return nil, nil, err
	}
	if l.Frontends > 0 {
		pipe, entry, err := keyed(1, l.BasePort-2)
		if err != nil {
			return nil, nil, err
		}
		c.EntryFrontAddr, c.EntryFrontKey = pipe[0].Addr, pipe[0].PublicKey
		keys.Entry = &entry[0]
		for i := range l.Frontends {
			c.Frontends = append(c.Frontends, addr(l.BasePort+l.Servers+1+l.Shards+i))
		}
	}
	if err := c.Validate(); err != nil {
		return nil, nil, fmt.Errorf("deploy: generated chain failed validation: %w", err)
	}
	return c, keys, nil
}

// Package frontend implements a stateless Vuvuzela entry frontend: one
// horizontally replicated tier-0 server that holds client connections
// so the chain-driving coordinator does not have to.
//
// A frontend accepts clients exactly like the coordinator's own client
// listener (same wire protocol — clients cannot tell the difference),
// relays the coordinator's round announcements to them, validates and
// batches their submissions, and forwards one partial batch per round
// over a single authenticated transport.Secure pipe
// (wire.KindFrontBatch). The coordinator's reply slice for the batch
// comes back as wire.KindFrontReplies and is demultiplexed to the
// clients in batch order.
//
// Frontends keep zero durable round state: the coordinator owns the
// round clock, the pipeline, and the chain RPC, so any number of
// frontends can be added, restarted, or lost mid-deployment. A frontend
// whose pipe drops keeps its clients connected and reconnects with
// backoff; its clients simply miss rounds until the pipe returns. Like
// the entry tier as a whole, frontends are untrusted (paper §7): they
// see only sealed onions and learn nothing the coordinator would not.
//
// Overload is shed, never queued unboundedly: client writer queues are
// bounded (a stalled client is dropped, as at the coordinator), the
// pipe's outbound queue is bounded (an overflowing partial batch is
// dropped and its clients miss the round), and Config.MaxClients
// refuses connections beyond the cap at accept time.
//
// The client side of every round — announce, collect, reply, over
// bounded writer queues, with the read loop and its churn handling — is
// internal/collector, the code the coordinator runs for its own direct
// clients; what is written here is the pipe: the long-lived dial to the
// coordinator, which rounds it announces, and which clients its reply
// slices belong to.
package frontend

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vuvuzela/internal/collector"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// DefaultCollectBudget is the fallback collection window for rounds
// whose announcement does not carry the coordinator's submit-timeout
// budget.
const DefaultCollectBudget = 2 * time.Second

// DefaultReconnectDelay is the pause between pipe reconnection attempts.
const DefaultReconnectDelay = 500 * time.Millisecond

// Config describes an entry frontend.
type Config struct {
	// Net is the transport used to dial the coordinator's frontend
	// listener.
	Net transport.Network
	// CoordAddr is the coordinator's frontend-pipe listen address.
	CoordAddr string
	// CoordPub is the coordinator's frontend-pipe public key
	// (Config.FrontIdentity's public half on the coordinator side). The
	// pipe always runs inside transport.Secure with the frontend
	// authenticating this key, so a misdirected dial fails the
	// handshake instead of handing client onions to an impostor.
	CoordPub box.PublicKey

	// MaxClients, if positive, is the load-shedding cap: connections
	// beyond it are refused at accept time so an overloaded frontend
	// degrades by turning clients away, not by slowing every round.
	MaxClients int

	// ReconnectDelay is the pause between pipe reconnection attempts
	// (0 uses DefaultReconnectDelay).
	ReconnectDelay time.Duration
}

// Frontend is a running entry frontend.
type Frontend struct {
	cfg Config
	// pub and priv are the pipe identity, fresh per process: the
	// coordinator accepts any frontend key (frontends are untrusted, §7),
	// and a key it has seen names this process, never a predecessor.
	pub  box.PublicKey
	priv box.PrivateKey
	// col holds the clients and collects each round's partial batch.
	col *collector.Collector

	mu    sync.Mutex
	await map[roundKey]*sentRound
	// pipe is the connection to the coordinator, nil while it is down.
	// Its writes go through a small bounded queue: a frontend sends
	// exactly one partial batch per announced round and the coordinator
	// never has more than wire.MaxRoundsInFlight rounds open, so a full
	// queue means the coordinator is not draining — the overflowing batch
	// is shed rather than queued without bound.
	pipe *collector.Conn

	closeOnce sync.Once
	closeCh   chan struct{}
}

// New creates a frontend.
func New(cfg Config) (*Frontend, error) {
	if cfg.Net == nil || cfg.CoordAddr == "" {
		return nil, errors.New("frontend: no coordinator configured")
	}
	if cfg.CoordPub == (box.PublicKey{}) {
		return nil, errors.New("frontend: coordinator pipe key required (Config.CoordPub)")
	}
	pub, priv, err := box.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("frontend: generating pipe identity: %w", err)
	}
	if cfg.ReconnectDelay == 0 {
		cfg.ReconnectDelay = DefaultReconnectDelay
	}
	return &Frontend{
		cfg:     cfg,
		pub:     pub,
		priv:    priv,
		col:     collector.New(cfg.MaxClients),
		await:   make(map[roundKey]*sentRound),
		closeCh: make(chan struct{}),
	}, nil
}

// NumClients returns the number of connected clients.
func (f *Frontend) NumClients() int { return f.col.NumClients() }

// PipeKey returns the public key this frontend authenticates its pipe
// with: the key the coordinator lists for it (coordinator.FrontendKeys)
// once the pipe is registered.
func (f *Frontend) PipeKey() box.PublicKey { return f.pub }

// Serve accepts client connections until the listener closes.
// Connections beyond Config.MaxClients are refused immediately
// (load-shedding): a client that cannot be served this round should
// retry another frontend rather than silently receive nothing.
func (f *Frontend) Serve(l net.Listener) error {
	return mixnet.ServeLoop(l, f.closeCh, f.col.ServeClient)
}

// Run maintains the coordinator pipe until the context is cancelled or
// the frontend closes: dial, authenticate, serve rounds, and on any
// pipe failure drop the rounds in flight and reconnect after
// ReconnectDelay. Clients stay connected across pipe outages — they
// miss rounds until the pipe returns, the same degradation as a slow
// network.
func (f *Frontend) Run(ctx context.Context) error {
	for {
		f.runPipe(ctx)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-f.closeCh:
			return nil
		case <-time.After(f.cfg.ReconnectDelay):
		}
	}
}

// runPipe serves one pipe connection to completion.
func (f *Frontend) runPipe(ctx context.Context) {
	raw, err := f.cfg.Net.Dial(f.cfg.CoordAddr)
	if err != nil {
		return
	}
	// The one secured dial outside mixnet.Peer: the pipe is long-lived
	// and the coordinator speaks first on it, so it is neither lazy nor
	// request/response, and the handshake runs eagerly under a deadline.
	sec := transport.SecureClient(raw, f.priv, f.cfg.CoordPub)
	if mixnet.HandshakeWithin(sec) != nil {
		return
	}

	conn := wire.NewConn(sec)
	p := collector.NewConn(conn, wire.MaxRoundsInFlight)
	f.mu.Lock()
	select {
	case <-f.closeCh:
		f.mu.Unlock()
		p.Close()
		return
	default:
	}
	f.pipe = p
	f.mu.Unlock()

	// Tear the pipe down when the frontend closes or the context ends,
	// so the Recv loop below unblocks.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
		case <-f.closeCh:
		case <-stop:
		}
		p.Close()
	}()

	for {
		msg, err := conn.Recv()
		if err != nil {
			break
		}
		switch msg.Kind {
		case wire.KindAnnounce:
			f.startRound(p, msg)
		case wire.KindFrontReplies:
			if err := f.deliver(msg); err != nil {
				// The coordinator broke the reply framing; a corrupted
				// demux would misroute onions between clients, so drop
				// the pipe and resync on reconnect.
				p.Close()
			}
		}
	}

	p.Close()
	f.mu.Lock()
	if f.pipe == p {
		f.pipe = nil
	}
	// Rounds in flight on this pipe can never complete: their batches
	// were (or would be) sent on a connection the coordinator has
	// forgotten. Their clients miss the round.
	f.await = make(map[roundKey]*sentRound)
	f.mu.Unlock()
}

// startRound begins collecting one round announced on the pipe. A
// previous round of the same protocol still collecting has been
// abandoned by the coordinator (it announced a newer one); Open closes it
// without sending.
func (f *Frontend) startRound(p *collector.Conn, ann *wire.Message) {
	budget := DefaultCollectBudget
	if ann.Bucket > 0 {
		// The coordinator's submit-timeout budget (milliseconds): use
		// 4/5 of it so the partial batch reaches the coordinator before
		// it stops waiting for this frontend.
		budget = time.Duration(ann.Bucket) * time.Millisecond * 4 / 5
	}
	perClient := perClientFor(ann)
	r := f.col.Open(ann.Proto, ann.Round, perClient)
	// The snapshot holds clients only, so no budget reaches the wire: the
	// relayed announcement is identical to a direct coordinator one.
	r.Announce(ann.M, 0)
	go f.collectRound(p, r, roundKey{ann.Proto, ann.Round}, perClient, budget)
}

// perClientFor derives the per-client onion count from an announcement:
// a conversation announcement's M is the exchange count, a dialing
// round is always one invitation onion per client.
func perClientFor(ann *wire.Message) int {
	if ann.Proto == wire.ProtoConvo && ann.M > 1 {
		return int(ann.M)
	}
	return 1
}

// collectRound waits out one round's collection window, then forwards
// the partial batch on the pipe and records the demux order for the
// reply. An empty frontend submits its empty batch immediately, letting
// the coordinator close the round early instead of waiting out the
// submit timeout on an idle frontend.
func (f *Frontend) collectRound(p *collector.Conn, r *collector.Round, key roundKey, perClient int, budget time.Duration) {
	onions, order, ok := r.Collect(budget, p.Closed(), f.closeCh)
	if !ok {
		return
	}

	sr := &sentRound{perClient: perClient, order: order}
	f.mu.Lock()
	f.await[key] = sr
	// Bound the demux state: the coordinator never has more than
	// wire.MaxRoundsInFlight rounds open, so anything older is a round
	// whose replies are never coming.
	if len(f.await) > wire.MaxRoundsInFlight+1 {
		lowest := key
		for k := range f.await {
			if k.proto == key.proto && k.round < lowest.round {
				lowest = k
			}
		}
		if lowest != key {
			delete(f.await, lowest)
		}
	}
	f.mu.Unlock()

	batch := wire.FrontBatchMessage(key.proto, key.round, uint32(len(order)), onions)
	if !p.Send(batch) {
		// Pipe gone or outbound queue overflowing: shed the round.
		f.mu.Lock()
		delete(f.await, key)
		f.mu.Unlock()
	}
}

// deliver demultiplexes one KindFrontReplies message to the clients of
// the batch it answers. A reply for an unknown round is stale (pipe
// reconnect, pruned demux state) and is dropped; a reply that fails
// validation is an error — the pipe is broken and must be dropped
// before a misaligned slice routes onions to the wrong clients.
func (f *Frontend) deliver(msg *wire.Message) error {
	key := roundKey{msg.Proto, msg.Round}
	f.mu.Lock()
	sr := f.await[key]
	delete(f.await, key)
	f.mu.Unlock()
	if sr == nil {
		return nil
	}

	want := len(sr.order) * sr.perClient
	if msg.Proto == wire.ProtoDial {
		want = 0
	}
	if err := wire.CheckFrontReplies(msg, msg.Proto, msg.Round, want); err != nil {
		return err
	}
	m := msg.M // dialing: the bucket count the coordinator acknowledged
	if msg.Proto == wire.ProtoConvo {
		m = uint32(sr.perClient)
	}
	collector.Reply(sr.order, msg.Proto, msg.Round, m, msg.Body)
	return nil
}

// Close disconnects all clients and the pipe.
func (f *Frontend) Close() error {
	f.closeOnce.Do(func() {
		close(f.closeCh)
		f.col.Close()
		f.mu.Lock()
		if f.pipe != nil {
			f.pipe.Close()
			f.pipe = nil
		}
		f.mu.Unlock()
	})
	return nil
}

// roundKey identifies one awaited reply slice.
type roundKey struct {
	proto wire.Proto
	round uint64
}

// sentRound is the demux state for one forwarded partial batch: the
// clients in batch order, each owning perClient onions of the reply.
type sentRound struct {
	perClient int
	order     []collector.Part
}

// Package coordinator implements Vuvuzela's entry server (paper §7): an
// untrusted front that announces rounds, multiplexes one fixed-size
// request per client per round into a single batch for the chain, and
// demultiplexes the results back.
//
// The entry tier is split in two so collection scales horizontally:
// the coordinator keeps the round clock, the round driver, durable round
// state, and the chain RPC; any number of stateless entry frontends
// (internal/frontend) hold the bulk of the client connections and forward
// one validated partial batch per round over an authenticated pipe
// (ServeFrontends, wire.KindFrontBatch). Clients may also connect to the
// coordinator directly (Serve) — small deployments and tests skip the
// frontend tier entirely.
//
// Both ends of the coordinator are shared code. The member-facing half of
// a round — announce, collect, reply, over bounded writer queues — is
// internal/collector, the same code a frontend runs for its clients;
// direct clients and frontend pipes are members of one collector. The
// entry leg into the chain is a mixnet.ChainLeg, one mixnet.Peer per
// protocol: the type behind every chain hop and shard leg, with the one
// redial-and-resend policy (docs/WIRE.md §2.2).
//
// One round driver serves both protocols — conversation rounds (with a
// reply path) and dialing rounds (publish-only; clients fetch buckets
// from the CDN): collect → forward → reply. It runs one round at a time
// (RunConvoRound / RunDialRound, which tests and the evaluation harness
// use for determinism) or as a pipeline with rounds in flight
// (RunConvoRounds, and timer mode, Start, for both protocols).
package coordinator

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
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// Config describes the entry server.
type Config struct {
	// Net is the transport the first chain server is dialed over: TCP in
	// a deployment, transport.Mem in tests. Net, ChainAddr and ChainPub
	// are all required — the chain is only ever reached over a wire.
	Net transport.Network
	// ChainAddr is the first chain server's listen address.
	ChainAddr string

	// ChainPub is the first chain server's long-term public key from the
	// chain descriptor. The entry leg always runs inside
	// transport.Secure, with the coordinator authenticating the server's
	// key — a misdirected or intercepted dial
	// fails the handshake instead of handing the batch to an impostor
	// (docs/THREAT_MODEL.md).
	ChainPub box.PublicKey

	// FrontIdentity is the coordinator's key for the frontend pipe
	// listener (ServeFrontends). Frontends authenticate the coordinator
	// by this key's public half before forwarding a single onion; the
	// coordinator accepts any frontend identity — frontends, like the
	// entry tier as a whole, are untrusted (§7). Required only when
	// ServeFrontends is used.
	FrontIdentity box.PrivateKey

	// DialBuckets is the number of invitation dead drops (m) announced
	// for each dialing round (§5.4): chain.json's dial_buckets, which
	// deploy.Entry fills in. Defaults to 1, the optimum at small scale
	// (§7).
	DialBuckets uint32

	// ConvoExchanges is the fixed number of conversation exchanges every
	// client performs per round — the §9 "multiple conversations"
	// extension ("the client should pick a maximum number of
	// conversations a priori (say, 5), and always send that many
	// conversation protocol exchange messages per round"). Defaults to 1,
	// the paper's prototype setting (§3.2).
	ConvoExchanges uint32

	// SubmitTimeout bounds how long a round waits for client submissions
	// after the announcement ("waiting a fixed amount of time for clients
	// to declare what dead drop they want to access", §3.1). A round
	// closes early once every connected client has submitted.
	SubmitTimeout time.Duration

	// ConvoWindow is the maximum number of conversation rounds in flight
	// at once in RunConvoRounds and timer mode: with a window of w, round r+1's
	// collection overlaps round r's chain traversal and reply fanout, up
	// to w rounds announced but not yet delivered. 0 or 1 runs rounds
	// strictly serially. Rounds still enter the chain in submission
	// order, keeping the mixnet's strictly-increasing round check
	// honest. Values above wire.MaxRoundsInFlight are clamped — clients
	// prune per-round reply state beyond that depth.
	ConvoWindow int

	// RoundState, if set, durably persists the announced round numbers
	// (roundstate.ConvoCounter / roundstate.DialCounter), write-ahead: a
	// round number is committed to disk BEFORE its announcement reaches a
	// single client. A restarted coordinator seeded from the same store
	// resumes numbering after the highest round it ever announced instead
	// of re-issuing round 1 into a chain that already consumed it — with
	// durable chain servers, a stateless entry restart would otherwise
	// wedge on the chain's strictly-increasing round check forever
	// (docs/THREAT_MODEL.md §3). New resumes the counters from the store.
	RoundState *roundstate.Counters

	// OnRoundError, if set, receives every round failure from timer mode
	// (Start) — dial rounds included, whose errors were previously
	// dropped on the floor. Timer mode keeps ticking either way (round
	// failures are transient; the next tick starts a fresh round), but
	// the operator now sees the cause, e.g. a chain RemoteError from a
	// dead dead-drop shard. Shutdown cancellations are not reported.
	// Callbacks run on the timer goroutine: return quickly.
	OnRoundError func(proto wire.Proto, round uint64, err error)
}

// Coordinator is a running entry server.
type Coordinator struct {
	cfg Config
	// col holds the direct clients and the frontend pipes, and collects
	// each round from both.
	col *collector.Collector
	// chain is the entry leg into server 0.
	chain mixnet.ChainLeg

	mu sync.Mutex
	// last is the highest round number announced, per protocol.
	last map[wire.Proto]uint64

	closeOnce sync.Once
	closeCh   chan struct{}
}

// counters names each protocol's counter in the durable round state.
var counters = map[wire.Proto]string{
	wire.ProtoConvo: roundstate.ConvoCounter,
	wire.ProtoDial:  roundstate.DialCounter,
}

// New creates a coordinator.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ChainAddr == "" || cfg.Net == nil {
		return nil, errors.New("coordinator: no chain configured")
	}
	if cfg.ChainPub == (box.PublicKey{}) {
		return nil, errors.New("coordinator: the chain needs the first server's public key (Config.ChainPub)")
	}
	// The chain accepts any client key on the entry leg (the entry server
	// is untrusted, §7); a fresh per-process identity keeps the channel
	// keyed without any registration step.
	_, identity, err := box.GenerateKey(nil)
	if err != nil {
		return nil, fmt.Errorf("coordinator: generating entry identity: %w", err)
	}
	if cfg.DialBuckets == 0 {
		cfg.DialBuckets = 1
	}
	if cfg.ConvoExchanges == 0 {
		cfg.ConvoExchanges = 1
	}
	if cfg.SubmitTimeout == 0 {
		cfg.SubmitTimeout = 5 * time.Second
	}
	cfg.ConvoWindow = max(1, min(cfg.ConvoWindow, wire.MaxRoundsInFlight))
	co := &Coordinator{
		cfg: cfg,
		col: collector.New(0),
		// The entry leg always runs inside transport.Secure: the Peer
		// verifies it reached the server holding ChainPub before the first
		// onion crosses the wire.
		chain:   mixnet.NewChainLeg(cfg.Net, cfg.ChainAddr, identity, cfg.ChainPub),
		last:    make(map[wire.Proto]uint64, len(counters)),
		closeCh: make(chan struct{}),
	}
	if cfg.RoundState != nil {
		// Resume numbering after the highest rounds a previous process
		// announced: those round numbers are burned whether or not their
		// batches ever reached the chain.
		for proto, name := range counters {
			co.last[proto] = cfg.RoundState.Last(name)
		}
	}
	return co, nil
}

// NumClients returns the number of directly connected clients (it does
// not count end clients behind frontends, which the coordinator only
// learns per round from each KindFrontBatch).
func (co *Coordinator) NumClients() int { return co.col.NumClients() }

// NumFrontends returns the number of connected entry-frontend pipes.
func (co *Coordinator) NumFrontends() int { return len(co.col.Fronts()) }

// FrontendKeys returns the authenticated key of each connected
// entry-frontend pipe (a frontend's PipeKey), one per pipe.
func (co *Coordinator) FrontendKeys() []box.PublicKey { return co.col.Fronts() }

// Serve accepts client connections until the listener closes.
func (co *Coordinator) Serve(l net.Listener) error {
	return mixnet.ServeLoop(l, co.closeCh, co.col.ServeClient)
}

// ServeFrontends accepts entry-frontend pipes until the listener
// closes. Each connection is wrapped in transport.Secure with the
// frontend authenticating Config.FrontIdentity's public key; any
// frontend identity is accepted (frontends are untrusted, §7). A
// connected frontend is a round participant like a direct client: it is
// announced to, counts once toward round completion, and must answer
// each announcement with exactly one wire.KindFrontBatch — possibly
// empty — so rounds still close early when every frontend reports.
func (co *Coordinator) ServeFrontends(l net.Listener) error {
	if co.cfg.FrontIdentity == (box.PrivateKey{}) {
		return errors.New("coordinator: ServeFrontends needs Config.FrontIdentity")
	}
	return mixnet.ServeLoop(l, co.closeCh, co.handleFrontend)
}

// handleFrontend runs the secure handshake for one frontend pipe and
// serves it. Unlike the chain's lazy accept path, the handshake runs to
// completion under a deadline before registration: the coordinator
// writes announcements proactively, so it cannot defer key agreement to
// the first inbound frame.
func (co *Coordinator) handleFrontend(raw net.Conn) {
	sec := transport.SecureServerAny(raw, co.cfg.FrontIdentity)
	if mixnet.HandshakeWithin(sec) != nil {
		return
	}
	co.col.ServeFront(wire.NewConn(sec), sec.Peer())
}

// round carries one round of either protocol through collect → forward
// → reply.
type round struct {
	proto wire.Proto
	n     uint64
	// m is the announced M: the exchange count of a conversation round,
	// the bucket count of a dialing round.
	m     uint32
	batch [][]byte
	parts []collector.Part
	// participants is the number of end clients in the batch — direct
	// submitters plus every client batched behind a frontend.
	participants int
}

// collect opens the next round of rd.proto into rd: it burns the round
// number, announces it, and gathers the submissions of every directly
// connected client and frontend pipe. The round number is set first, so
// a failed round still names it.
func (co *Coordinator) collect(ctx context.Context, rd *round) error {
	proto := rd.proto
	co.mu.Lock()
	co.last[proto]++
	rd.n = co.last[proto]
	co.mu.Unlock()
	// Write-ahead: the number is on disk before any client sees it. A
	// refused commit fails the round; the counter has already moved past
	// the number, so it is skipped, never reused, and numbering stays
	// monotonic across a crash at any instant.
	if rs := co.cfg.RoundState; rs != nil {
		if err := rs.Commit(counters[proto], rd.n); err != nil {
			return fmt.Errorf("coordinator: cannot persist %s round %d: %w", counters[proto], rd.n, err)
		}
	}

	perClient := 1 // one invitation onion per client in a dialing round
	if proto == wire.ProtoConvo {
		rd.m = co.cfg.ConvoExchanges
		perClient = int(rd.m)
	} else {
		rd.m = co.cfg.DialBuckets
	}
	r := co.col.Open(proto, rd.n, perClient)
	r.Announce(rd.m, co.cfg.SubmitTimeout)
	batch, parts, ok := r.Collect(co.cfg.SubmitTimeout, ctx.Done(), co.closeCh)
	if !ok {
		if err := ctx.Err(); err != nil {
			return err
		}
		return errors.New("coordinator: closed")
	}
	rd.batch, rd.parts = batch, parts
	for _, p := range parts {
		rd.participants += p.Onions / perClient
	}
	return nil
}

// forward sends the round's batch through the chain and returns the
// replies (none for dialing). Calls for consecutive rounds of one
// protocol must stay ordered — the chain enforces strictly increasing
// rounds — so callers forward each protocol's rounds from one goroutine.
func (co *Coordinator) forward(rd *round) ([][]byte, error) {
	var m uint32 // a conversation batch into server 0 carries M = 0
	if rd.proto == wire.ProtoDial {
		m = rd.m
	}
	replies, err := co.chain.Forward(rd.proto, rd.n, m, rd.batch, nil)
	if err != nil {
		return nil, err
	}
	if rd.proto == wire.ProtoConvo && len(replies) != len(rd.batch) {
		return nil, fmt.Errorf("coordinator: chain returned %d replies for %d requests", len(replies), len(rd.batch))
	}
	return replies, nil
}

// RunConvoRound executes one conversation round: announce, collect,
// forward through the chain, and deliver replies. It returns the round
// number and how many clients participated.
func (co *Coordinator) RunConvoRound(ctx context.Context) (round uint64, participants int, err error) {
	return co.run(ctx, wire.ProtoConvo)
}

// RunDialRound executes one dialing round: announce (with the bucket
// count m), collect, forward, and acknowledge so clients know the round's
// buckets are published.
func (co *Coordinator) RunDialRound(ctx context.Context) (round uint64, participants int, err error) {
	return co.run(ctx, wire.ProtoDial)
}

// run executes one round of proto through collect → forward → reply.
func (co *Coordinator) run(ctx context.Context, proto wire.Proto) (uint64, int, error) {
	rd := round{proto: proto}
	if err := co.collect(ctx, &rd); err != nil {
		return rd.n, 0, err
	}
	replies, err := co.forward(&rd)
	if err != nil {
		return rd.n, rd.participants, err
	}
	collector.Reply(rd.parts, proto, rd.n, rd.m, replies)
	return rd.n, rd.participants, nil
}

// RunConvoRounds executes n consecutive conversation rounds with up to
// ConvoWindow rounds in flight: while round r traverses the chain, round
// r+1 is already announced and collecting, which overlaps client
// submission latency with server crypto and raises round throughput
// without changing any per-round semantics. It returns the participant
// count of each completed round. A collection error stops announcing new
// rounds but already-collected rounds still drain through the chain and
// deliver their replies (clients who submitted are never stranded); a
// chain error or context cancellation aborts the pipeline.
func (co *Coordinator) RunConvoRounds(ctx context.Context, n int) ([]int, error) {
	participants := make([]int, 0, n)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errCh := make(chan error, 2)
	i := 0
	co.pipeline(ctx, wire.ProtoConvo, co.cfg.ConvoWindow, stageHooks{
		// next runs on the collector goroutine; i is touched nowhere else.
		next: func() bool { i++; return i <= n },
		onCollectErr: func(_ uint64, err error) bool {
			// Stop announcing, but no cancel(): rounds already collected
			// gathered real client submissions and must still be
			// forwarded and replied to.
			errCh <- err
			return false
		},
		onChainErr: func(_ uint64, err error) bool {
			errCh <- err
			cancel()
			return false
		},
		// onDelivered runs on the goroutine pipeline blocks, so the
		// append is race-free.
		onDelivered: func(rd *round) {
			participants = append(participants, rd.participants)
		},
	})
	select {
	case err := <-errCh:
		return participants, err
	default:
	}
	if len(participants) < n {
		// No stage reported an error, yet the pipeline stopped short:
		// the context was cancelled while a stage was between error
		// checks (e.g. blocked on the in-flight semaphore).
		return participants, ctx.Err()
	}
	return participants, nil
}

// stageHooks parameterizes pipeline for its two callers: RunConvoRounds
// (bounded round count, abort on failure) and timer mode (ticker-paced,
// report failures and keep going).
type stageHooks struct {
	// next blocks until another round should be announced; false stops
	// announcing (already-collected rounds still drain). Runs on the
	// collector goroutine.
	next func() bool
	// onCollectErr receives a collection failure; false stops
	// announcing. Collection fails only on context cancellation,
	// coordinator close, or a round-state commit failure.
	onCollectErr func(n uint64, err error) bool
	// onChainErr receives a chain failure; false aborts the chain stage
	// (rounds already delivered still get their replies), true skips the
	// round and keeps forwarding later ones.
	onChainErr func(n uint64, err error) bool
	// onDelivered observes each round after its replies went out; may be
	// nil. Runs on the caller's goroutine.
	onDelivered func(rd *round)
}

// pipeline is the round driver with rounds in flight: collect → forward
// → reply for proto, with at most window rounds in flight (slots are
// taken before announcing and released after the replies; a window of 1
// runs whole rounds one after another). The forward stage is a single
// goroutine forwarding rounds in collection order, so the mixnet's
// strictly-increasing round check stays satisfied. Blocks until every
// stage has drained.
func (co *Coordinator) pipeline(ctx context.Context, proto wire.Proto, window int, h stageHooks) {
	type forwarded struct {
		rd      *round
		replies [][]byte
	}
	var (
		inflight  = make(chan struct{}, window)
		collected = make(chan *round, window)
		delivered = make(chan forwarded, window)
	)

	go func() {
		defer close(collected)
		for h.next() {
			// No closeCh case here: a coordinator Close must surface as
			// collect's error (via onCollectErr) rather than stopping the
			// collector silently — RunConvoRounds' callers are owed that
			// error. Slots always free because the reply stage keeps
			// draining.
			select {
			case inflight <- struct{}{}:
			case <-ctx.Done():
				return
			}
			rd := &round{proto: proto}
			if err := co.collect(ctx, rd); err != nil {
				stop := !h.onCollectErr(rd.n, err)
				<-inflight
				if stop {
					return
				}
				continue
			}
			collected <- rd
		}
	}()

	go func() {
		defer close(delivered)
		for rd := range collected {
			if ctx.Err() != nil {
				return
			}
			replies, err := co.forward(rd)
			if err != nil {
				if !h.onChainErr(rd.n, err) {
					return
				}
				<-inflight
				continue
			}
			delivered <- forwarded{rd, replies}
		}
	}()

	for d := range delivered {
		collector.Reply(d.rd.parts, proto, d.rd.n, d.rd.m, d.replies)
		if h.onDelivered != nil {
			h.onDelivered(d.rd)
		}
		<-inflight
	}
}

// Start drives rounds on timers until the context is cancelled or the
// coordinator closes: a conversation round every convoEvery and a
// dialing round every dialEvery; 0 disables a protocol's timer. The paper's
// prototype uses sub-minute conversation rounds (§5.2) and 10-minute
// dialing rounds (§8.3). Both protocols run through the pipeline
// RunConvoRounds uses: conversation rounds at ConvoWindow, so with a
// window above 1 round r+1's announcement and collection overlap round
// r's chain traversal, and dialing rounds one at a time.
// Round failures are transient — the next tick starts a fresh round —
// but each one is surfaced through Config.OnRoundError so a persistent
// cause (an unreachable chain, a dead dead-drop shard) is visible
// instead of silently swallowed.
func (co *Coordinator) Start(ctx context.Context, convoEvery, dialEvery time.Duration) {
	if convoEvery > 0 {
		go co.timed(ctx, wire.ProtoConvo, co.cfg.ConvoWindow, convoEvery)
	}
	if dialEvery > 0 {
		go co.timed(ctx, wire.ProtoDial, 1, dialEvery)
	}
}

// timed is timer mode's driver for one protocol: the pipeline, paced by
// a ticker of period every. Unlike RunConvoRounds — whose callers want
// the error — a failed round here, in collection (a refused round-state
// commit) or in the chain, is reported through OnRoundError and the
// pipeline keeps ticking; only shutdown (context or Close) ends it,
// through next.
func (co *Coordinator) timed(ctx context.Context, proto wire.Proto, window int, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	report := func(n uint64, err error) bool {
		co.reportRoundError(proto, n, err)
		return true
	}
	co.pipeline(ctx, proto, window, stageHooks{
		next: func() bool {
			select {
			case <-ctx.Done():
				return false
			case <-co.closeCh:
				return false
			case <-t.C:
				return true
			}
		},
		onCollectErr: report,
		onChainErr:   report,
	})
}

// reportRoundError forwards a timer-mode round failure to the configured
// callback, filtering the cancellations that normal shutdown produces.
func (co *Coordinator) reportRoundError(proto wire.Proto, round uint64, err error) {
	if err == nil || co.cfg.OnRoundError == nil {
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	co.cfg.OnRoundError(proto, round, err)
}

// Close disconnects all clients and the chain.
func (co *Coordinator) Close() error {
	co.closeOnce.Do(func() {
		close(co.closeCh)
		co.col.Close()
		co.chain.Close()
	})
	return nil
}

// Package mixnet implements a Vuvuzela chain server (paper §4.1, Algorithm
// 2): it unwraps one onion layer from every request in a round, adds cover
// traffic, shuffles, forwards the batch to the next server (or, as the
// last server, performs the dead-drop exchange / invitation bucketing),
// then unshuffles, strips its noise, and seals each reply on the way back.
//
// Algorithm 2 step 2 reads "seal noise under pre-agreed paths" here: the
// key agreement behind a noise onion (onion.NewPaths) depends only on the
// downstream public keys, so a mixing server keeps a pool of agreed paths
// (pathPool), refilled while it waits on its successor, and a round only
// draws its noise counts, generates the payloads and seals them
// (onion.Path.Seal). Nothing round-bound is computed ahead. NewServer
// parses the downstream keys once (box.Peer), so that every agreement runs
// on fixed-base tables, and refuses a key that is no curve point.
//
// A round runs in the frame it arrived in. A served connection receives
// into one recycled buffer; convoRound and dialRound remove this server's
// layer from each onion where it lies, forward (or exchange) views of the
// same bytes, and keep one buffer per round for the reply keys, one for
// the cover traffic and one for the replies — those two, being sent, are
// always fresh, so a refused onion's reply slot is zeros and never an
// earlier round's bytes. Per onion that leaves nothing to allocate: the
// key exchanges run on the stack, in chunks (TestRoundAllocs). The
// exported ConvoRound and DialRound copy the caller's batch once and run
// the same round.
//
// A server always runs over a transport.Network (Serve/handleConn,
// speaking the wire protocol to its predecessor and successor): TCP in a
// deployment, transport.Mem in tests, examples and the evaluation harness.
// There is no in-process shortcut between hops — the wire is what the
// paper's adversary watches (§2.1), so it is what every test exercises.
//
// Every leg — the entry leg into server 0, each chain hop,
// and the last server's shard fan-out — runs inside transport.Secure,
// keyed by the chain descriptor's long-term keys; docs/WIRE.md
// specifies the framing and docs/THREAT_MODEL.md maps each leg onto the
// paper's adversary. The dialing side of every such leg is one type,
// Peer (lazy dial, redial, the one resend policy, response validation);
// the accepting side shares ServeLoop and the tracked-connection set
// that makes Close a faithful process kill.
//
// No round runs twice: before touching a round a chain server
// (checkRound) and a shard (ExchangeRound) hand its number to the one
// guard, roundstate.Counters' Advance, which refuses what is not newer and
// commits what is — to Config.RoundState's file, or with none configured
// to the same counters in memory.
package mixnet

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/parallel"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/shuffle"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// BucketSink receives a dialing round's published buckets from the last
// server — the CDN substrate of §5.5.
type BucketSink interface {
	// Publish receives one dialing round's filled invitation buckets.
	Publish(*dial.Buckets)
}

// Config describes one chain server.
type Config struct {
	// Position is the server's 0-based index in the chain.
	Position int
	// ChainPubs holds the public keys of the whole chain, in order.
	ChainPubs []box.PublicKey
	// Priv is this server's private key.
	Priv box.PrivateKey

	// ConvoNoise is the conversation cover-traffic distribution
	// (Laplace(µ, b) in production; Fixed in the paper's evaluation
	// mode). Nil disables conversation noise — used only by the
	// traffic-analysis experiments to demonstrate the attack the noise
	// defeats. The last server adds no conversation noise (§8.2).
	ConvoNoise noise.Distribution
	// DialNoise is the per-bucket dialing noise distribution; every
	// server including the last adds dialing noise (§5.3).
	DialNoise noise.Distribution
	// NoiseSrc seeds the Laplace draws (nil = crypto/rand).
	NoiseSrc noise.Source

	// Workers bounds the parallel crypto workers of a round, and of the
	// noise-path refill between rounds (0 = GOMAXPROCS).
	Workers int

	// ShardAddrs, set only on the last server, lists the networked
	// dead-drop shard servers (`vuvuzela-server -key shard-<i>.key`): the
	// exchange is partitioned by drop-ID prefix and fanned out over Net
	// instead of running in-process. One address is the degenerate case
	// and remains byte-identical to the in-process path.
	ShardAddrs []string
	// ShardPubs holds the shards' long-term public keys, aligned with
	// ShardAddrs (the chain descriptor's shard entries). Required
	// whenever ShardAddrs is set: the router↔shard leg always runs
	// inside an authenticated transport.Secure channel keyed by these
	// and by Priv — there is no plaintext fan-out.
	ShardPubs []box.PublicKey
	// ShardTimeout bounds each shard's per-round RPC (0 = wait forever).
	// A shard that exceeds it aborts the round with a RemoteError naming
	// the shard, instead of wedging the whole chain.
	ShardTimeout time.Duration

	// Net is the byte-stream substrate this server dials its successor
	// (and, on the last server, its shards) over. Required, with NextAddr,
	// unless this is the last server. Every leg runs inside
	// transport.Secure keyed by Priv and ChainPubs — there is no plaintext
	// hop (docs/THREAT_MODEL.md).
	Net transport.Network
	// NextAddr is the successor's listen address.
	NextAddr string

	// Buckets receives dialing buckets if this is the last server.
	Buckets BucketSink

	// AllowRoundReuse disables the strictly-increasing round check
	// (needed by adversary simulations that replay rounds).
	AllowRoundReuse bool

	// RoundState, if set, durably persists the round counters behind the
	// strictly-increasing check — the conversation and dialing protocols
	// number rounds independently, so each gets its own named counter
	// (roundstate.ConvoCounter / roundstate.DialCounter) in one file.
	// Commits are write-ahead: a round is committed to disk BEFORE this
	// server unwraps a single onion, so a restarted server seeded from
	// the same store rejects every round the previous process consumed
	// instead of re-running it with fresh noise (the §4.2 replay window;
	// docs/THREAT_MODEL.md §3). Nil keeps the same counters in memory
	// only: a restart forgets them.
	RoundState *roundstate.Counters

	// ConvoObserver, if set on the last server, receives the observable
	// variables of each conversation round — the histogram of dead-drop
	// access counts (§4.2). It models what an adversary who compromised
	// the last server learns, and is used only by the traffic-analysis
	// experiments.
	ConvoObserver func(round uint64, m1, m2, more int)
}

// Server is one running chain server.
type Server struct {
	cfg Config
	// key is cfg.Priv parsed once; every onion of every round is
	// unwrapped with it (it is immutable, so round workers share it).
	key  *box.DHKey
	last bool
	// router fans the last server's dead-drop exchange out to networked
	// shard servers; nil for the in-process exchange.
	router *ShardRouter

	// next is the leg to the successor; nil on the last server.
	next ChainLeg
	// pool holds pre-agreed paths for this server's noise onions; nil on
	// the last server, which wraps none.
	pool *pathPool
	// rounds is the replay guard: cfg.RoundState, or the same counters in
	// memory only.
	rounds *roundstate.Counters

	accepted connSet

	closed  sync.Once
	closeCh chan struct{}
}

// Errors returned by round processing.
var (
	// ErrRoundReplay rejects a round at or below the last processed one
	// (the strictly-increasing round check, docs/THREAT_MODEL.md): it is
	// roundstate.ErrReplay, the refusal of the one guard chain servers
	// and shards share.
	ErrRoundReplay = roundstate.ErrReplay
	// ErrReplyMismatch rejects a successor's or a shard's replies that do
	// not match the batch sent: the wrong number of them, or one that is
	// not of the layer's fixed size. It arrives wrapped in ErrBadResponse.
	ErrReplyMismatch = errors.New("mixnet: replies do not match batch")
	// ErrNoSuccessor rejects a non-last server configured without a
	// successor to dial (Config.Net and Config.NextAddr).
	ErrNoSuccessor = errors.New("mixnet: no successor configured")
	// ErrRoundTooLarge rejects a dialing round with more buckets than a
	// frame has parts, or with noise that would not fit one frame.
	ErrRoundTooLarge = errors.New("mixnet: dialing round does not fit one frame")
)

// NewServer validates the configuration and returns a Server. The
// private key must be the one whose public half the chain descriptor
// lists at Position: every networked leg — accepting the predecessor (or
// the entry leg at position 0) and dialing the successor — is
// authenticated with it, so a mismatched key could never complete a
// handshake anyway and is rejected here instead of at the first round. So
// is a downstream key box.NewPeer refuses: every noise onion agrees a key
// with each of them.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Position < 0 || cfg.Position >= len(cfg.ChainPubs) {
		return nil, fmt.Errorf("mixnet: position %d out of range for chain of %d", cfg.Position, len(cfg.ChainPubs))
	}
	key := box.NewDHKey(&cfg.Priv)
	if key.Public() != cfg.ChainPubs[cfg.Position] {
		return nil, fmt.Errorf("mixnet: private key does not match chain descriptor position %d", cfg.Position)
	}
	last := cfg.Position == len(cfg.ChainPubs)-1
	var downstream []*box.Peer
	if !last {
		if cfg.NextAddr == "" || cfg.Net == nil {
			return nil, ErrNoSuccessor
		}
		var err error
		if downstream, err = box.NewPeers(cfg.ChainPubs[cfg.Position+1:]); err != nil {
			return nil, fmt.Errorf("mixnet: downstream chain key: %w", err)
		}
	}
	if cfg.AllowRoundReuse && cfg.RoundState != nil {
		// Contradictory: with the round check disabled the store would
		// never be written, while its presence tells the operator rounds
		// are durably committed.
		return nil, errors.New("mixnet: AllowRoundReuse together with a RoundState store — the store would silently never be written")
	}
	var router *ShardRouter
	if len(cfg.ShardAddrs) > 0 {
		if !last {
			return nil, errors.New("mixnet: only the last server may have shard servers")
		}
		r, err := NewShardRouter(cfg)
		if err != nil {
			return nil, err
		}
		router = r
	}
	s := &Server{
		cfg:     cfg,
		key:     key,
		last:    last,
		router:  router,
		rounds:  cmp.Or(cfg.RoundState, new(roundstate.Counters)),
		closeCh: make(chan struct{}),
	}
	if !last {
		s.next = NewChainLeg(cfg.Net, cfg.NextAddr, cfg.Priv, cfg.ChainPubs[cfg.Position+1])
		s.pool = newPathPool(downstream, cfg.Workers)
	}
	return s, nil
}

// LastRound reports the highest round this server has committed for
// proto (from the durable store after a restart, when one is
// configured).
func (s *Server) LastRound(proto wire.Proto) uint64 {
	return s.rounds.Last(counterName(proto))
}

// counterName maps a wire protocol onto its named counter in the
// durable round-state file.
func counterName(proto wire.Proto) string {
	switch proto {
	case wire.ProtoConvo:
		return roundstate.ConvoCounter
	case wire.ProtoDial:
		return roundstate.DialCounter
	default:
		return fmt.Sprintf("proto-%d", byte(proto))
	}
}

// checkRound consumes the round, BEFORE any onion is unwrapped: rounds
// are strictly increasing per protocol, and with a RoundState store an
// accepted one is on disk by the time this returns (roundstate.Counters'
// Advance — a refused write advances nothing, so a healed disk can still
// accept the round).
func (s *Server) checkRound(proto wire.Proto, round uint64) error {
	if s.cfg.AllowRoundReuse {
		return nil
	}
	if err := s.rounds.Advance(counterName(proto), round); err != nil {
		return fmt.Errorf("mixnet: server %d: %w", s.cfg.Position, err)
	}
	return nil
}

// chainLen returns the number of servers in the chain.
func (s *Server) chainLen() int { return len(s.cfg.ChainPubs) }

// ConvoRound processes one conversation round (Algorithm 2): the incoming
// onions are this server's layer; the returned replies align with them.
// The caller's onions are left untouched: the round runs on a copy, where
// a served connection runs it on the received frame itself.
func (s *Server) ConvoRound(round uint64, onions [][]byte) ([][]byte, error) {
	return s.convoRound(round, cloneBatch(onions))
}

// cloneBatch copies a batch into one buffer.
func cloneBatch(batch [][]byte) [][]byte {
	total := 0
	for _, b := range batch {
		total += len(b)
	}
	buf := make([]byte, 0, total)
	out := make([][]byte, len(batch))
	for i, b := range batch {
		buf = append(buf, b...)
		out[i] = buf[len(buf)-len(b) : len(buf) : len(buf)]
	}
	return out
}

// unwrapBatch removes this server's layer from every onion in place and
// compacts the batch to the inner onions that authenticated, in arrival
// order: idx[j] is the slot real[j] arrived in, keys[idx[j]] the key its
// reply is sealed with. An onion that fails is left exactly as it arrived.
//
// Each worker takes chunks of min(box.MaxBatch, ⌈n/workers⌉) onions, their
// key agreements batched under one field inversion: full batches where the
// round is large, and never fewer chunks than workers, so a small round
// leaves no core idle.
func (s *Server) unwrapBatch(round uint64, onions [][]byte) (real [][]byte, idx []int, keys [][box.KeySize]byte) {
	keys = make([][box.KeySize]byte, len(onions))
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	chunk := max(1, min(box.MaxBatch, (len(onions)+workers-1)/workers))
	parallel.For((len(onions)+chunk-1)/chunk, workers, func(c int) {
		lo, hi := c*chunk, min((c+1)*chunk, len(onions))
		// A nil inner onion marks the failure.
		onion.UnwrapBatchInPlace(onions[lo:hi], s.key, keys[lo:hi], round, s.cfg.Position)
	})
	idx = make([]int, 0, len(onions))
	real = onions[:0]
	for i, in := range onions {
		if in != nil {
			idx = append(idx, i)
			real = append(real, in)
		}
	}
	return real, idx, keys
}

// convoRound is the one conversation round: onions is the round's working
// memory. Each layer is removed in place, so the batch forwarded (or
// exchanged) is views into it, and it may be recycled once the returned
// replies — always a fresh buffer — have been sent.
func (s *Server) convoRound(round uint64, onions [][]byte) ([][]byte, error) {
	if err := s.checkRound(wire.ProtoConvo, round); err != nil {
		return nil, err
	}
	p := s.cfg.Position
	// What the rest of the chain owes per onion; this server's reply adds
	// its own layer.
	innerReply := convo.SealedSize + box.Overhead*(s.chainLen()-p-1)

	// Step 1: collect and decrypt requests.
	fwd, fwdIdx, keys := s.unwrapBatch(round, onions)
	nReal := len(fwd)

	var replies [][]byte
	if s.last {
		// Step 3b: the last server matches dead drops; no noise, no
		// shuffle (it sees the drop IDs regardless).
		if s.cfg.ConvoObserver != nil {
			m1, m2, more := convo.Histogram(fwd)
			s.cfg.ConvoObserver(round, m1, m2, more)
		}
		if s.router != nil {
			// Networked fan-out: the exchange runs on the shard servers;
			// a shard failure aborts the round with a RemoteError so the
			// predecessor never blindly retries a consumed round.
			exchanged, err := s.router.Exchange(round, fwd)
			if err != nil {
				return nil, err
			}
			replies = exchanged
		} else {
			replies = convo.Service{}.Process(round, fwd)
		}
	} else {
		// Step 2: generate cover traffic and seal it under pre-agreed
		// paths through the rest of the chain.
		if s.cfg.ConvoNoise != nil {
			gen := convo.NoiseGen{Dist: s.cfg.ConvoNoise, Src: s.cfg.NoiseSrc}
			singles, pairs := gen.Draw()
			noiseOnions, err := s.sealNoise(s.pool.get, singles+2*pairs, convo.RequestSize, round,
				func(payloads [][]byte) { gen.Fill(payloads, singles) })
			if err != nil {
				return nil, err
			}
			fwd = append(fwd, noiseOnions...)
		}

		// Step 3a: shuffle and forward. A successor that answers with the
		// wrong number of replies, or one of the wrong size, fails the
		// round: every reply below is sealed into a fixed-size slot.
		perm := shuffle.New(len(fwd), nil)
		down, err := s.next.Forward(wire.ProtoConvo, round, 0, perm.Apply(fwd), func(resp *wire.Message) error {
			return checkReplies(resp.Body, len(fwd), innerReply)
		})
		if err != nil {
			return nil, err
		}
		// Unshuffle, then strip this server's noise replies.
		replies = perm.Invert(down)[:nReal]
	}

	// Step 4: encrypt results and return them, aligned with the incoming
	// batch, in one fresh buffer; the slots of undecryptable requests stay
	// zero, so the batch shape is preserved.
	out := slab(len(onions), innerReply+onion.ReplyOverhead)
	parallel.For(nReal, s.cfg.Workers, func(j int) {
		i := fwdIdx[j]
		onion.SealReplyInto(out[i], replies[j], &keys[i], round, p)
	})
	return out, nil
}

// slab returns n slices of size bytes each, cut from one fresh zeroed
// buffer: what a round sends is built in one of these per kind, never in
// memory an earlier round used.
func slab(n, size int) [][]byte {
	buf := make([]byte, n*size)
	out := make([][]byte, n)
	for i := range out {
		out[i] = buf[i*size : (i+1)*size : (i+1)*size]
	}
	return out
}

// checkReplies is the test every batch of replies must pass before it is
// sealed and passed upstream: one reply per request, each of the layer's
// fixed size.
func checkReplies(replies [][]byte, n, size int) error {
	if len(replies) != n {
		return fmt.Errorf("%w: %d replies for %d requests", ErrReplyMismatch, len(replies), n)
	}
	for i, r := range replies {
		if len(r) != size {
			return fmt.Errorf("%w: reply %d is %d bytes, want %d", ErrReplyMismatch, i, len(r), size)
		}
	}
	return nil
}

// sealNoise builds a round's n noise onions for the rest of the chain in
// one fresh buffer, each under a path of its own from the pool (get is the
// pool's get or getDial, by the round's protocol): fill writes the
// payloads, payloadLen bytes each, into the onions' tails, and every onion
// is then sealed where it lies and its path wiped: noise replies are
// dropped unread, and the rest of the path's chunk may still be pooled.
func (s *Server) sealNoise(get func(int) ([]onion.Path, error), n, payloadLen int, round uint64, fill func(payloads [][]byte)) ([][]byte, error) {
	paths, err := get(n)
	if err != nil {
		return nil, fmt.Errorf("mixnet: agreeing noise paths: %w", err)
	}
	layers := s.chainLen() - s.cfg.Position - 1
	onions := slab(n, onion.Size(payloadLen, layers))
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = onions[i][layers*onion.LayerOverhead:]
	}
	fill(payloads)
	parallel.For(n, s.cfg.Workers, func(i int) {
		paths[i].SealInPlace(onions[i], round, s.cfg.Position+1)
		paths[i].Wipe()
	})
	return onions, nil
}

// DialRound processes one dialing round with m invitation buckets. The
// dialing protocol has no reply path (§5.1: clients download their bucket
// from the CDN), so DialRound only returns an error. Like ConvoRound it
// runs on a copy of the caller's onions.
func (s *Server) DialRound(round uint64, m uint32, onions [][]byte) error {
	return s.dialRound(round, m, cloneBatch(onions))
}

// dialRound is the one dialing round, over onions as its working memory
// (see convoRound).
func (s *Server) dialRound(round uint64, m uint32, onions [][]byte) error {
	// The bucket count comes from the untrusted entry (§7) and sizes
	// per-bucket work on every server: it is bounded before the round is
	// consumed, so an honest retry can still use the round number.
	if m > wire.MaxBodyParts {
		return fmt.Errorf("mixnet: server %d: %w: %d buckets", s.cfg.Position, ErrRoundTooLarge, m)
	}
	if err := s.checkRound(wire.ProtoDial, round); err != nil {
		return err
	}
	fwd, _, _ := s.unwrapBatch(round, onions)

	// Per-bucket noise (§5.3) is drawn, with the counts of up to 64
	// buckets on the stack, and bounded to one frame before any of it is
	// allocated: the last server files its own into the buckets, a mixing
	// server seals its noise beside the real onions.
	gen := dial.NoiseGen{Dist: s.cfg.DialNoise, Src: s.cfg.NoiseSrc}
	var small [64]int
	var counts []int
	if gen.Dist != nil {
		counts = slices.Grow(small[:0], int(m))[:m]
	}
	total := gen.Draw(counts)
	parts, bytes := total, total*dial.InvitationSize
	if !s.last {
		parts, bytes = len(fwd)+total, total*onion.Size(dial.RequestSize, s.chainLen()-s.cfg.Position-1)
		for _, o := range fwd {
			bytes += len(o)
		}
	}
	if !wire.FitsFrame(parts, bytes) {
		return fmt.Errorf("mixnet: server %d: %w: %d parts, %d bytes", s.cfg.Position, ErrRoundTooLarge, parts, bytes)
	}

	if s.last {
		// The sink publishes the buckets to the CDN (§5.5).
		buckets := dial.Service{}.File(round, m, fwd, counts)
		if s.cfg.Buckets != nil {
			s.cfg.Buckets.Publish(buckets)
		}
		return nil
	}
	if gen.Dist != nil {
		noiseOnions, err := s.sealNoise(s.pool.getDial, total, dial.RequestSize, round,
			func(payloads [][]byte) { gen.Fill(payloads, counts) })
		if err != nil {
			return err
		}
		fwd = append(fwd, noiseOnions...)
	}

	perm := shuffle.New(len(fwd), nil)
	_, err := s.next.Forward(wire.ProtoDial, round, m, perm.Apply(fwd), nil)
	return err
}

// RemoteError is a round failure attributed to a specific peer: a
// wire.KindError rejection from the successor, or a shard failure the
// router maps onto the shard's address. The round may have been
// consumed, so the predecessor must not blindly retry.
type RemoteError struct {
	// Addr names the peer the failure is attributed to.
	Addr string
	// Msg is the peer's reported cause (or a local description of it).
	Msg string
	// Err is the underlying cause when it originated locally (a shard
	// RPC failure), so callers can classify it — e.g.
	// errors.Is(err, transport.ErrAuth). Nil for rejections that arrived
	// as a KindError string from the wire.
	Err error
}

// Error implements error, naming the peer and its reported cause.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("mixnet: remote %s reported: %s", e.Addr, e.Msg)
}

// Unwrap exposes the underlying cause for errors.Is/As.
func (e *RemoteError) Unwrap() error { return e.Err }

// Serve accepts connections from the predecessor (or the entry server for
// server 0) and processes batches until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	return ServeLoop(l, s.closeCh, s.accepted.track(s.handleConn))
}

// ServeBuckets serves the invitation CDN this last server publishes to on
// l, each connection by handle (cdn.Store.Handle), until l closes. Close
// severs them with the chain leg's: no client reads a dead process's store.
func (s *Server) ServeBuckets(l net.Listener, handle func(net.Conn)) error {
	return ServeLoop(l, s.closeCh, s.accepted.track(handle))
}

// handleConn serves one predecessor (or entry) connection. The raw
// stream is wrapped in transport.Secure before any frame is parsed:
// position 0 runs the entry leg (it proves its own key to the dialer and
// accepts any client static — the entry server is untrusted, §7), later
// positions accept only their chain predecessor's descriptor key.
func (s *Server) handleConn(raw net.Conn) {
	var sc *transport.Secure
	if s.cfg.Position == 0 {
		sc = transport.SecureServerAny(raw, s.cfg.Priv)
	} else {
		sc = transport.SecureServer(raw, s.cfg.Priv, []box.PublicKey{s.cfg.ChainPubs[s.cfg.Position-1]})
	}
	serveConn(sc, DefaultHandshakeTimeout, s.answer)
}

// answer runs one received batch through the round, with the received
// frame as the round's working memory. A failed round is reported instead
// of closing the connection: the predecessor gets the cause, and later
// rounds can still use this connection.
func (s *Server) answer(msg *wire.Message) (wire.Message, bool) {
	if msg.Kind != wire.KindBatch {
		return wire.Message{}, false
	}
	resp := wire.Message{Kind: wire.KindReplies, Proto: msg.Proto, Round: msg.Round}
	var err error
	switch msg.Proto {
	case wire.ProtoConvo:
		resp.Body, err = s.convoRound(msg.Round, msg.Body)
	case wire.ProtoDial:
		err = s.dialRound(msg.Round, msg.M, msg.Body)
	default:
		return wire.Message{}, false
	}
	if err != nil {
		return *wire.ErrorMessage(msg.Proto, msg.Round, err), true
	}
	return resp, true
}

// Close shuts the server down like a process kill: accepted connections
// are severed (a "crashed" server must not keep serving rounds through
// connections accepted before the crash) — first, so a round in flight
// cannot report the dropped successor or shard leg upstream as an
// authenticated error, which a dead process could not have sent and
// which would keep the predecessor from retrying into a replacement —
// then successor and shard connections are dropped, and no new successor
// dial will be made; a Serve loop returns after its listener is closed by
// the caller. A mixing server's pre-agreed noise paths are dropped, and
// Close returns only once the goroutines refilling them have exited.
func (s *Server) Close() error {
	s.closed.Do(func() {
		close(s.closeCh)
		s.accepted.closeAll()
		if s.router != nil {
			s.router.Close()
		}
		s.next.Close()
		if s.pool != nil {
			s.pool.close()
		}
	})
	return nil
}

// NewChainKeys generates a fresh key chain of n servers, returning the
// public chain and each server's private key, for tests that stand up a
// bare chain. A deployment's keys come with its descriptor, from
// internal/deploy's generator.
func NewChainKeys(n int) ([]box.PublicKey, []box.PrivateKey, error) {
	pubs := make([]box.PublicKey, n)
	privs := make([]box.PrivateKey, n)
	for i := 0; i < n; i++ {
		pub, priv, err := box.GenerateKey(nil)
		if err != nil {
			return nil, nil, err
		}
		pubs[i], privs[i] = pub, priv
	}
	return pubs, privs, nil
}

// StartChain builds and serves a whole chain on network, wired exactly as
// separate processes would be: position i is listened for at "server-<i>",
// served, and dials position i+1 inside transport.Secure. Each server's
// config is base with Position, ChainPubs, Priv, Net and NextAddr filled
// in; bucketSink and base's shard fan-out fields apply to the last server
// only. It returns the servers, their addresses (the entry leg dials
// addrs[0] under pubs[0]) and a function that stops all of them. Only
// tests call it: those of this package and of coordinator, frontend and
// client, which need a bare served chain and — for the packages
// internal/sim imports — cannot import sim. Every other in-process
// deployment is sim.ChainNet, which also kills, restarts and persists
// individual nodes.
func StartChain(network transport.Network, pubs []box.PublicKey, privs []box.PrivateKey, base Config, bucketSink BucketSink) (servers []*Server, addrs []string, stop func(), err error) {
	n := len(pubs)
	servers = make([]*Server, 0, n)
	addrs = make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("server-%d", i)
	}
	var listeners []net.Listener
	stop = func() {
		for i, srv := range servers {
			listeners[i].Close()
			srv.Close()
		}
	}
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Position = i
		cfg.ChainPubs = pubs
		cfg.Priv = privs[i]
		cfg.Net = network
		if i == n-1 {
			cfg.Buckets = bucketSink
		} else {
			cfg.NextAddr = addrs[i+1]
			cfg.ShardAddrs, cfg.ShardPubs = nil, nil
		}
		srv, err := NewServer(cfg)
		if err != nil {
			stop()
			return nil, nil, nil, err
		}
		l, err := network.Listen(addrs[i])
		if err != nil {
			srv.Close()
			stop()
			return nil, nil, nil, err
		}
		go srv.Serve(l)
		servers = append(servers, srv)
		listeners = append(listeners, l)
	}
	return servers, addrs, stop, nil
}

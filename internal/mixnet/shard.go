// Networked shard fan-out for the last hop of the chain: the last server's
// dead-drop exchange — Vuvuzela's single scaling bottleneck (§8.2) — is
// partitioned by drop-ID prefix across independent shard server processes,
// the way Atom scales anonymity servers and Riposte scales write-PIR
// servers horizontally. The ShardRouter runs inside the last chain server:
// it splits each round's innermost exchange requests with deaddrop.ShardOf,
// forwards every partition over the wire (KindShardRound), and merges the
// shard replies back into exact request order, so the rest of the chain —
// and the coordinator's round accounting — cannot tell a 1-process last
// server from an N-machine one. N=1 is the degenerate case and is
// byte-identical to the in-process path by construction.
//
// The router↔shard leg is always authenticated and encrypted: every
// connection runs inside transport.Secure, keyed by the long-term keys in
// the chain descriptor (the router proves it is the last chain server,
// each shard proves it is the shard the descriptor names). There is no
// plaintext mode — NewShardRouter and NewShardServer refuse to construct
// without key material, so an active attacker on this leg can neither
// read dead-drop sub-batches nor forge, replay, or reorder them.
//
// Shard failures follow the ShardPolicy: Abort (default) fails the round
// on any shard failure; Degrade zero-fills an unreachable shard's replies
// so the surviving shards' traffic still completes. Authentication
// failures and shard-side rejections are NEVER degraded around — a
// forging or misbehaving shard aborts the round under either policy.

package mixnet

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deaddrop"
	"vuvuzela/internal/parallel"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// ShardPolicy selects how the router treats a shard that fails during a
// round.
type ShardPolicy int

const (
	// ShardAbort (the default) fails the whole round on any shard
	// failure — the behavior of a failed chain hop.
	ShardAbort ShardPolicy = iota
	// ShardDegrade zero-fills an unreachable shard's replies (in exact
	// request order) so the round completes for the surviving shards.
	// Only connection-level failures — a dead, unreachable, or silent
	// shard — are degradable; authentication failures and shard-side
	// rejections abort the round under this policy too. Note the
	// anonymity caveat: which replies are zero-filled is observable
	// round metadata (see README and PAPER.md §5).
	ShardDegrade
)

// String names the policy for logs and flag output.
func (p ShardPolicy) String() string {
	switch p {
	case ShardAbort:
		return "abort"
	case ShardDegrade:
		return "degrade"
	default:
		return fmt.Sprintf("ShardPolicy(%d)", int(p))
	}
}

// ShardConfig describes one networked dead-drop shard server.
type ShardConfig struct {
	// Index is this shard's 0-based position in the fan-out; the router
	// sends it exactly the requests whose drop IDs map here.
	Index int
	// NumShards is the total shard count in the chain descriptor; frames
	// carrying an index outside [0, NumShards) are rejected.
	NumShards int
	// Workers bounds nothing: a shard's exchange is one sequential table.
	// The field remains only because bench/deploy.go sets it; a
	// benchmark-only change can drop both.
	Workers int

	// RoundState, if set, durably persists the round counter behind the
	// strictly-increasing check, as roundstate.ConvoCounter in a Counters
	// file like a chain server's (write-ahead: a round is committed to
	// disk before its exchange runs). A restarted shard seeded from the
	// same store rejoins the chain with replay protection intact; nil
	// keeps the counter in memory only, and a restart then reopens the
	// §4.2 replay window for every round before the crash.
	RoundState *roundstate.Counters

	// Identity is this shard's long-term private key (the one whose
	// public half the chain descriptor lists for this shard). Required:
	// every router connection is authenticated with it.
	Identity box.PrivateKey
	// Authorized lists the static keys allowed to drive rounds — in a
	// deployment, the last chain server's key. Required, non-empty.
	Authorized []box.PublicKey
	// HandshakeTimeout bounds how long an accepted connection may sit
	// unauthenticated before being dropped — otherwise anyone who can
	// reach the port could pin a goroutine and socket per idle dial
	// (0 = DefaultHandshakeTimeout).
	HandshakeTimeout time.Duration
}

// DefaultHandshakeTimeout is how long a shard server waits for a dialer
// to complete the authenticated handshake.
const DefaultHandshakeTimeout = 10 * time.Second

// ShardServer is one running dead-drop shard process
// (`vuvuzela-server -key shard-<i>.key`). It speaks only the shard leg of the
// wire protocol: KindShardRound in, KindShardReply (or KindError) out,
// always inside an authenticated transport.Secure channel — a peer that
// cannot prove an authorized key gets nothing, and a tampered or
// replayed frame kills the connection before it reaches the exchange.
type ShardServer struct {
	cfg ShardConfig
	// rounds is the replay guard: cfg.RoundState, or the same counter in
	// memory only.
	rounds *roundstate.Counters

	accepted connSet

	closed  sync.Once
	closeCh chan struct{}
}

// NewShardServer validates the configuration and returns a ShardServer.
func NewShardServer(cfg ShardConfig) (*ShardServer, error) {
	if cfg.NumShards < 1 {
		return nil, errors.New("mixnet: shard server needs NumShards >= 1")
	}
	if cfg.Index < 0 || cfg.Index >= cfg.NumShards {
		return nil, fmt.Errorf("mixnet: shard index %d out of range for %d shards", cfg.Index, cfg.NumShards)
	}
	if cfg.Identity == (box.PrivateKey{}) {
		return nil, errors.New("mixnet: shard server needs an identity key")
	}
	if len(cfg.Authorized) == 0 {
		return nil, errors.New("mixnet: shard server needs at least one authorized router key")
	}
	for _, k := range cfg.Authorized {
		if k == (box.PublicKey{}) {
			return nil, errors.New("mixnet: zero key in shard server authorized list")
		}
	}
	return &ShardServer{
		cfg:     cfg,
		rounds:  cmp.Or(cfg.RoundState, new(roundstate.Counters)),
		closeCh: make(chan struct{}),
	}, nil
}

// LastRound reports the highest round this shard has committed (from the
// durable store after a restart, when one is configured).
func (s *ShardServer) LastRound() uint64 {
	return s.rounds.Last(roundstate.ConvoCounter)
}

// ExchangeRound runs this shard's slice of one round's dead-drop exchange
// and returns one reply per request, in request order. Rounds must be
// strictly increasing, mirroring the chain servers: a shard never
// processes the same round twice, which is what makes any retry of a
// delivered round fail cleanly instead of double-exchanging. The check
// does not care which policy the router runs — a stale round is rejected
// under Degrade too.
func (s *ShardServer) ExchangeRound(round uint64, requests [][]byte) ([][]byte, error) {
	// Write-ahead: the round is consumed BEFORE the dead drops are
	// touched. A crash after this point loses the round (the router's one
	// resend is refused from this counter); a crash before it leaves the
	// counter untouched. Either way the same round can never be exchanged
	// twice.
	if err := s.rounds.Advance(roundstate.ConvoCounter, round); err != nil {
		return nil, fmt.Errorf("mixnet: shard %d: %w", s.cfg.Index, err)
	}
	return convo.Service{}.Process(round, requests), nil
}

// Serve accepts router connections and processes shard rounds until the
// listener closes. Each accepted connection must complete the
// authenticated handshake before any frame reaches the exchange.
func (s *ShardServer) Serve(l net.Listener) error {
	return ServeLoop(l, s.closeCh, s.accepted.track(s.handleConn))
}

func (s *ShardServer) handleConn(raw net.Conn) {
	sc := transport.SecureServer(raw, s.cfg.Identity, s.cfg.Authorized)
	// The replies alias the request (each is its drop partner's payload),
	// which serveConn recycles only after they have been sent.
	serveConn(sc, s.cfg.HandshakeTimeout, s.answer)
}

// answer exchanges one received shard round. A mismatch or a failed
// exchange is reported instead of closing the connection: the router
// sees the cause, and a healthy next round can reuse the connection.
func (s *ShardServer) answer(msg *wire.Message) (wire.Message, bool) {
	if err := wire.CheckShardRound(msg, uint32(s.cfg.Index), uint32(s.cfg.NumShards)); err != nil {
		return *wire.ErrorMessage(msg.Proto, msg.Round, err), true
	}
	replies, err := s.ExchangeRound(msg.Round, msg.Body)
	if err != nil {
		return *wire.ErrorMessage(msg.Proto, msg.Round, err), true
	}
	return *wire.ShardReplyMessage(msg.Round, uint32(s.cfg.Index), replies), true
}

// Close shuts the server down, severing accepted connections (so a
// simulated crash cannot keep serving rounds through an old connection);
// a Serve loop returns after its listener is closed by the caller.
func (s *ShardServer) Close() error {
	s.closed.Do(func() {
		close(s.closeCh)
		s.accepted.closeAll()
	})
	return nil
}

// ShardRouter is the last chain server's fan-out client: it partitions
// each round's innermost exchange requests by drop-ID prefix, forwards
// every partition to its shard server concurrently over authenticated
// channels, and merges the replies back into exact request order.
type ShardRouter struct {
	// cfg is the last server's Config, of which the router reads Net,
	// ShardAddrs, ShardPubs, Priv (the key the shards authorize),
	// ShardTimeout, ShardPolicy and OnShardDegraded.
	cfg Config
	// peers holds the leg to each shard, in shard-index order. The shard
	// leg is the one leg with a per-round Timeout (a shard answers from
	// local state; a chain hop waits on the rest of the chain) and with
	// receive-buffer reuse (round r's replies are merged, sealed and sent
	// up the chain before round r+1's exchange is sent).
	peers []*Peer
}

// NewShardRouter returns a router over the shard addresses of the last
// server's cfg. Connections are dialed lazily and kept across rounds; key
// material is mandatory — there is no plaintext path to a shard.
func NewShardRouter(cfg Config) (*ShardRouter, error) {
	if cfg.Net == nil {
		return nil, errors.New("mixnet: shard router needs a network")
	}
	if len(cfg.ShardAddrs) == 0 {
		return nil, errors.New("mixnet: shard router needs at least one shard address")
	}
	if len(cfg.ShardPubs) != len(cfg.ShardAddrs) {
		return nil, fmt.Errorf("mixnet: shard router has %d keys for %d shards", len(cfg.ShardPubs), len(cfg.ShardAddrs))
	}
	for i, k := range cfg.ShardPubs {
		if k == (box.PublicKey{}) {
			return nil, fmt.Errorf("mixnet: shard %d has a zero public key", i)
		}
	}
	if cfg.Priv == (box.PrivateKey{}) {
		return nil, errors.New("mixnet: shard router needs an identity key")
	}
	if cfg.ShardPolicy != ShardAbort && cfg.ShardPolicy != ShardDegrade {
		return nil, fmt.Errorf("mixnet: unknown shard policy %d", int(cfg.ShardPolicy))
	}
	r := &ShardRouter{cfg: cfg, peers: make([]*Peer, len(cfg.ShardAddrs))}
	for s, addr := range cfg.ShardAddrs {
		r.peers[s] = &Peer{
			Net: cfg.Net, Addr: addr, Priv: cfg.Priv, Pub: cfg.ShardPubs[s],
			Timeout: cfg.ShardTimeout, ReuseRecv: true,
		}
	}
	return r, nil
}

// refusedError marks a response from an authenticated shard that rejects
// or malforms the round — a replay rejection, a desynchronized stream, a
// short reply batch. The shard spoke, with a verified key, and what it
// said was wrong: that is misbehavior or consumed round state, never a
// network failure, so it is never degradable.
type refusedError struct{ err error }

func (e *refusedError) Error() string { return e.err.Error() }
func (e *refusedError) Unwrap() error { return e.err }

// degradable reports whether err is the kind of failure ShardDegrade may
// zero-fill around: the shard was unreachable or silent. Authentication
// failures (someone on the wire is forging) and refused rounds (the
// shard answered and rejected) always abort.
func degradable(err error) bool {
	if errors.Is(err, transport.ErrAuth) {
		return false
	}
	var refused *refusedError
	return !errors.As(err, &refused)
}

// Exchange performs one round's dead-drop exchange across the shard
// servers and returns one reply per request, aligned with the input.
// Malformed requests (wrong size) are answered locally with zero replies,
// exactly as convo.Service does, so the networked path stays
// byte-identical to the sequential one.
//
// Under ShardAbort, any shard failure aborts the round with a
// *RemoteError naming the shard: by then at least one shard has consumed
// the round number, so the predecessor must not blindly retry — the same
// contract as a failed chain hop. Under ShardDegrade, a shard that is
// unreachable or silent is zero-filled instead, and reported through
// Config.OnShardDegraded in ascending shard order; authentication failures
// and shard-side rejections abort either way.
func (r *ShardRouter) Exchange(round uint64, requests [][]byte) ([][]byte, error) {
	n := len(r.cfg.ShardAddrs)
	// Partition by drop-ID prefix, preserving arrival order within each
	// shard — the property that makes per-shard pairing identical to the
	// global table's.
	shardOf := make([]int, len(requests))
	subIdx := make([]int, len(requests))
	subs := make([][][]byte, n)
	for i, b := range requests {
		if len(b) != convo.RequestSize {
			shardOf[i] = -1
			continue
		}
		var id deaddrop.ID
		copy(id[:], b[:deaddrop.IDSize])
		s := deaddrop.ShardOf(id, n)
		shardOf[i] = s
		subIdx[i] = len(subs[s])
		subs[s] = append(subs[s], b)
	}

	// Fan out with one goroutine per shard: the RPCs are network-bound,
	// so the width must not be clamped to GOMAXPROCS.
	perShard := make([][][]byte, n)
	errs := make([]error, n)
	parallel.For(n, n, func(s int) {
		perShard[s], errs[s] = r.rpc(s, round, subs[s])
	})

	// Hard failures first, regardless of policy, scanning all shards in
	// index order (deterministic): an authentication failure or a
	// shard-side rejection aborts the round even if other shards merely
	// timed out — Degrade must never mask a forging shard.
	for s, err := range errs {
		if err != nil && !degradable(err) {
			return nil, &RemoteError{
				Addr: r.cfg.ShardAddrs[s],
				Msg:  fmt.Sprintf("shard %d: %v", s, err),
				Err:  err,
			}
		}
	}
	for s, err := range errs {
		if err == nil {
			continue
		}
		if r.cfg.ShardPolicy != ShardDegrade {
			return nil, &RemoteError{
				Addr: r.cfg.ShardAddrs[s],
				Msg:  fmt.Sprintf("shard %d: %v", s, err),
				Err:  err,
			}
		}
		// Zero-fill the dead shard's replies in exact request order, so
		// the merge below stays aligned and the surviving shards'
		// replies are byte-identical to a healthy round's.
		zeros := make([][]byte, len(subs[s]))
		for i := range zeros {
			zeros[i] = make([]byte, convo.SealedSize)
		}
		perShard[s] = zeros
		if r.cfg.OnShardDegraded != nil {
			r.cfg.OnShardDegraded(round, s, r.cfg.ShardAddrs[s], err)
		}
	}

	out := make([][]byte, len(requests))
	for i := range requests {
		if shardOf[i] < 0 {
			out[i] = make([]byte, convo.SealedSize)
			continue
		}
		out[i] = perShard[shardOf[i]][subIdx[i]]
	}
	return out, nil
}

// rpc runs one shard's round trip through its Peer and sorts the failure
// for the Abort/Degrade merge. Whatever an authenticated shard said that
// was not a valid reply — an echoed rejection (the round number was
// consumed), a frame that authenticated but does not parse or does not
// answer the request, a short reply batch, a reply of the wrong size — is
// a refusedError; what is left is the shard being unreachable or silent.
func (r *ShardRouter) rpc(s int, round uint64, sub [][]byte) ([][]byte, error) {
	resp, err := r.peers[s].Do(wire.ShardRoundMessage(round, uint32(s), sub), func(resp *wire.Message) error {
		if err := wire.CheckShardReply(resp, round, uint32(s), len(sub)); err != nil {
			return err
		}
		return checkReplies(resp.Body, len(sub), convo.SealedSize)
	})
	if err == nil {
		return resp.Body, nil
	}
	var remote *RemoteError
	if errors.As(err, &remote) {
		// Exchange names the shard and its address itself.
		return nil, &refusedError{errors.New(remote.Msg)}
	}
	if errors.Is(err, ErrBadResponse) {
		return nil, &refusedError{err}
	}
	return nil, err
}

// Close drops all shard connections and refuses new dials.
func (r *ShardRouter) Close() error {
	for _, p := range r.peers {
		p.Close()
	}
	return nil
}

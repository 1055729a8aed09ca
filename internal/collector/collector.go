// Package collector is the client-facing half of Vuvuzela's entry tier
// (paper §7), written once for both places it runs: the coordinator, for
// its direct clients and its frontend pipes together, and every entry
// frontend, for its clients. It owns the member-facing half of every
// round of either protocol:
//
//   - Conn, the bounded-queue writer: a stalled peer is shed, never
//     waited on (§9);
//   - Round, the announce-time membership of one round, and its three
//     steps: Announce to the snapshot, Collect the submissions (the batch
//     flattened in snapshot order), and Reply to each contributor;
//   - the read loop that routes each submission to its pending round and
//     removes a departed member from every pending round, so churn closes
//     a round early instead of burning the submit timeout.
//
// What the round is for — the round clock, the chain RPC, the pipe to the
// coordinator — stays with the caller. The package sits below both
// internal/coordinator and internal/frontend so that neither depends on
// the other.
package collector

import (
	"errors"
	"net"
	"sync"
	"time"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/wire"
)

// maxOnion is the largest onion accepted from a client. The client leg is
// plaintext and open to anyone, and a receiver sizes its buffer from the
// 4-byte length prefix alone, so a client connection's frame limit is what
// a stranger's four bytes can make an entry server allocate. It is derived,
// never configured: one submission of as many onions as the largest round
// opened so far asked of each client (Open), each at most this size — a
// conversation onion is 272+48·n bytes on a chain of n ≤ config.MaxServers.
const maxOnion = 4 << 10

// clientQueue is the writer-queue depth of a round member. A member is
// owed at most an announcement and a reply per round in flight for each
// protocol, so a full queue means it has stopped reading.
const clientQueue = 64

// Conn is one connection with a bounded outbound queue drained by its
// own writer goroutine, so that one stalled peer can never block a
// round's announce or reply loop.
type Conn struct {
	conn   *wire.Conn
	out    chan *wire.Message
	closed chan struct{}
	once   sync.Once
	// front marks an entry-frontend pipe: its submissions arrive as one
	// wire.KindFrontBatch per round and its replies leave as
	// wire.KindFrontReplies. key is the pipe's authenticated static key.
	front bool
	key   box.PublicKey
}

// NewConn starts the writer for conn with a queue of the given depth.
func NewConn(conn *wire.Conn, queue int) *Conn {
	c := &Conn{
		conn:   conn,
		out:    make(chan *wire.Message, queue),
		closed: make(chan struct{}),
	}
	go c.writeLoop()
	return c
}

func (c *Conn) writeLoop() {
	for {
		select {
		case m := <-c.out:
			if err := c.conn.Send(m); err != nil {
				c.Close()
				return
			}
		case <-c.closed:
			return
		}
	}
}

// Send queues m and never blocks. False means m was not queued: the
// queue is full or the connection closed. What overflow means is the
// caller's call (Deliver closes the connection, a frontend sheds the one
// batch). True does not promise delivery — the connection may close
// before the writer gets to m.
func (c *Conn) Send(m *wire.Message) bool {
	select {
	case c.out <- m:
		return true
	case <-c.closed:
	default:
	}
	return false
}

// Deliver queues m for a round member. A member whose queue is full is
// not reading and is dropped rather than allowed to hold up the round —
// the entry-server DoS resilience §9 calls for.
func (c *Conn) Deliver(m *wire.Message) {
	if !c.Send(m) {
		c.Close()
	}
}

// Close closes the connection and stops its writer.
func (c *Conn) Close() {
	c.once.Do(func() {
		close(c.closed)
		c.conn.Close()
	})
}

// Closed is closed once the connection is.
func (c *Conn) Closed() <-chan struct{} { return c.closed }

// Collector is the set of connected round members of one listener tier
// and the rounds currently collecting from them.
type Collector struct {
	max int

	mu      sync.Mutex
	members map[*Conn]struct{}
	// perClient is the largest per-client onion count of any round opened
	// so far; it sizes every client connection's frame limit.
	perClient int
	fronts    int
	pending   map[wire.Proto]*Round
	closed    bool
}

// New returns an empty collector. A positive maxClients refuses client
// connections beyond that many (load shedding at accept time).
func New(maxClients int) *Collector {
	return &Collector{
		max:       maxClients,
		members:   make(map[*Conn]struct{}),
		perClient: 1,
		pending:   make(map[wire.Proto]*Round),
	}
}

// NumClients returns the number of connected clients.
func (co *Collector) NumClients() int {
	co.mu.Lock()
	defer co.mu.Unlock()
	return len(co.members) - co.fronts
}

// Fronts returns the authenticated keys of the connected frontend pipes,
// one per pipe. A key names its frontend process, so a caller can tell a
// live frontend's pipe from a dead one's that has not been noticed yet.
func (co *Collector) Fronts() []box.PublicKey {
	co.mu.Lock()
	defer co.mu.Unlock()
	keys := make([]box.PublicKey, 0, co.fronts)
	for c := range co.members {
		if c.front {
			keys = append(keys, c.key)
		}
	}
	return keys
}

// ServeClient serves one accepted client connection until it ends. This
// is the one place a plaintext client stream is framed, so every
// connection it registers carries the client-leg frame limit (maxOnion).
func (co *Collector) ServeClient(raw net.Conn) { co.serve(wire.NewConn(raw), false, box.PublicKey{}) }

// ServeFront serves one authenticated frontend pipe, whose peer proved
// key in the handshake, until it ends. A pipe is a round member like a
// direct client: it is announced to, counts once toward round completion,
// and must answer each announcement with exactly one wire.KindFrontBatch —
// possibly empty.
func (co *Collector) ServeFront(conn *wire.Conn, key box.PublicKey) { co.serve(conn, true, key) }

// serve registers the connection and runs its read loop: each
// submission — wire.KindSubmit from a client, wire.KindFrontBatch from a
// pipe — is routed to the pending round it names. A malformed submission
// (wrong exchange count, bad frontend framing, an oversized frame) drops
// the connection, the same policy as a stalled writer: the peer is
// broken, and silently ignoring it would leave an honest but
// misconfigured client waiting forever for a reply that can never be
// addressed to it. A late, duplicate or non-member submission is
// per-message noise and keeps the connection. On disconnect every
// pending round is told.
func (co *Collector) serve(conn *wire.Conn, front bool, key box.PublicKey) {
	co.mu.Lock()
	if co.closed || (!front && co.max > 0 && len(co.members)-co.fronts >= co.max) {
		co.mu.Unlock()
		conn.Close()
		return
	}
	c := NewConn(conn, clientQueue)
	c.front, c.key = front, key
	co.members[c] = struct{}{}
	if front {
		co.fronts++
	} else {
		conn.SetRecvLimit(co.perClient, maxOnion)
	}
	co.mu.Unlock()
	defer co.remove(c)
	for {
		msg, err := conn.Recv()
		if err != nil {
			return
		}
		if front {
			if msg.Kind != wire.KindFrontBatch {
				return // frontends speak only KindFrontBatch; drop the pipe
			}
		} else if msg.Kind != wire.KindSubmit {
			continue
		}
		r := co.Pending(msg.Proto)
		if r == nil || r.round != msg.Round {
			continue // late or unknown round: drop (the client retries next round)
		}
		if front {
			if wire.CheckFrontBatch(msg, r.perClient) != nil {
				return
			}
		} else if len(msg.Body) != r.perClient {
			return
		}
		_ = r.record(c, msg.Body)
	}
}

func (co *Collector) remove(c *Conn) {
	co.mu.Lock()
	delete(co.members, c)
	if c.front {
		co.fronts--
	}
	open := make([]*Round, 0, len(co.pending))
	for _, r := range co.pending {
		open = append(open, r)
	}
	co.mu.Unlock()
	c.Close()
	for _, r := range open {
		r.drop(c)
	}
}

// Close disconnects every member and refuses new ones.
func (co *Collector) Close() {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.closed = true
	for c := range co.members {
		c.Close()
	}
}

// Pending returns the round of proto that is collecting, or nil.
func (co *Collector) Pending(proto wire.Proto) *Round {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.pending[proto]
}

// Round collects one round's submissions from the announce-time snapshot
// of the collector's members.
type Round struct {
	co    *Collector
	proto wire.Proto
	round uint64
	// perClient is the fixed number of onions each end client must
	// submit (the exchange count for conversations, 1 for dialing).
	perClient int
	snapshot  []*Conn

	mu sync.Mutex
	// members is the announce-time snapshot: only these connections may
	// contribute. A connection that joined after the announcement waits
	// for the next round — letting it vote here would close the round
	// early while the snapshot-ordered batch build dropped its onions.
	members map[*Conn]struct{}
	// subs holds each member's recorded submission: exactly perClient
	// onions for a client, M·perClient onions in demux order for a
	// frontend's partial batch.
	subs map[*Conn][][]byte
	// missing counts members that have neither submitted nor
	// disconnected; full fires when it reaches zero.
	missing int
	// closed marks the round finished — batch built or abandoned — after
	// which record and drop are rejected.
	closed bool
	full   chan struct{}
}

// Open starts collecting round `round` of proto from the members
// connected now and makes it the pending round of proto. A round of the
// same protocol still pending has been superseded and is abandoned. A
// perClient above every earlier round's raises the clients' frame limit.
func (co *Collector) Open(proto wire.Proto, round uint64, perClient int) *Round {
	co.mu.Lock()
	defer co.mu.Unlock()
	r := &Round{
		co:        co,
		proto:     proto,
		round:     round,
		perClient: perClient,
		snapshot:  make([]*Conn, 0, len(co.members)),
		members:   make(map[*Conn]struct{}, len(co.members)),
		subs:      make(map[*Conn][][]byte, len(co.members)),
		missing:   len(co.members),
		full:      make(chan struct{}),
	}
	raise := perClient > co.perClient
	if raise {
		co.perClient = perClient
	}
	for c := range co.members {
		r.snapshot = append(r.snapshot, c)
		r.members[c] = struct{}{}
		if raise && !c.front {
			c.conn.SetRecvLimit(perClient, maxOnion)
		}
	}
	if r.missing == 0 {
		close(r.full)
	}
	if old := co.pending[proto]; old != nil {
		old.close()
	}
	co.pending[proto] = r
	return r
}

// Announce sends the round's announcement, M = m, to every member of its
// snapshot. A frontend pipe's copy also carries budget — how long the
// caller will collect — in Bucket (milliseconds), so the frontend closes
// its partial batch before the caller stops waiting for it; a client's
// never does, so a client cannot tell which tier it dialed. The pipe copy
// is built only when the snapshot holds a pipe.
func (r *Round) Announce(m uint32, budget time.Duration) {
	ann := &wire.Message{Kind: wire.KindAnnounce, Proto: r.proto, Round: r.round, M: m}
	var pipeAnn *wire.Message
	for _, c := range r.snapshot {
		msg := ann
		if c.front {
			if pipeAnn == nil {
				cp := *ann
				cp.Bucket = uint32(budget / time.Millisecond)
				pipeAnn = &cp
			}
			msg = pipeAnn
		}
		c.Deliver(msg)
	}
}

// Collect waits until every member has submitted or disconnected, or
// budget elapses, and then finishes the round (Finish). If stop or done
// closes first — the caller's two reasons to give up, say its context and
// its own Close — the round is abandoned instead and ok is false.
func (r *Round) Collect(budget time.Duration, stop, done <-chan struct{}) (batch [][]byte, parts []Part, ok bool) {
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case <-r.full:
	case <-timer.C:
	case <-stop:
		r.abandon()
		return nil, nil, false
	case <-done:
		r.abandon()
		return nil, nil, false
	}
	batch, parts = r.Finish()
	return batch, parts, true
}

// Round-membership rejections. The read loop treats these as per-message
// noise (drop the submission, keep the connection): none of them
// indicates a broken peer, just unfortunate timing.
var (
	errRoundClosed = errors.New("collector: round closed")
	errNotMember   = errors.New("collector: not in round snapshot")
	errDuplicate   = errors.New("collector: duplicate submission")
)

// record stores a member's submission and fires full once the last
// outstanding member is accounted for. Non-members are rejected so a late
// joiner can neither fire full early nor have its onions silently
// dropped by the snapshot-ordered batch build.
func (r *Round) record(c *Conn, onions [][]byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return errRoundClosed
	}
	if _, ok := r.members[c]; !ok {
		return errNotMember
	}
	if _, dup := r.subs[c]; dup {
		return errDuplicate
	}
	r.subs[c] = onions
	r.settle()
	return nil
}

// drop removes a disconnected member that has not submitted, so a round
// with churn closes as soon as every remaining member has submitted. A
// member that already submitted keeps its slot — its onions are in the
// batch whether or not anyone is left to receive the reply.
func (r *Round) drop(c *Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	if _, ok := r.members[c]; !ok {
		return
	}
	if _, submitted := r.subs[c]; submitted {
		return
	}
	delete(r.members, c)
	r.settle()
}

// settle accounts for one member; the caller holds r.mu.
func (r *Round) settle() {
	r.missing--
	if r.missing == 0 {
		close(r.full)
	}
}

// Part is one batch contributor in snapshot order: contributor i owns
// batch[off : off+Onions], where off is the sum of the earlier
// contributors' counts.
type Part struct {
	// Conn is the contributing member, to address its slice of the
	// replies to.
	Conn *Conn
	// Onions is how many batch entries it supplied: perClient for a
	// client, M·perClient for a frontend pipe.
	Onions int
}

// Finish retires the round and returns the submissions flattened in
// snapshot order with the contributor of each slice. Submissions and
// disconnects arriving afterwards are ignored.
func (r *Round) Finish() ([][]byte, []Part) {
	r.retire()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	batch := make([][]byte, 0, len(r.subs)*r.perClient)
	parts := make([]Part, 0, len(r.subs))
	for _, c := range r.snapshot {
		if onions, ok := r.subs[c]; ok {
			batch = append(batch, onions...)
			parts = append(parts, Part{Conn: c, Onions: len(onions)})
		}
	}
	return batch, parts
}

// Reply delivers a finished round's result to its contributors, parts as
// Finish returned them. A client gets a wire.KindReply with M = m: in a
// conversation round its own slice of replies (m is the exchange count),
// in a dialing round the bodiless acknowledgement that the round's
// buckets are published (m is the bucket count). A frontend pipe gets one
// wire.KindFrontReplies for all its clients: in a conversation round its
// whole slice with M the number of clients behind it, for the frontend to
// split; in a dialing round the acknowledgement with M = m.
func Reply(parts []Part, proto wire.Proto, round uint64, m uint32, replies [][]byte) {
	off := 0
	for _, p := range parts {
		msg := &wire.Message{Kind: wire.KindReply, Proto: proto, Round: round, M: m}
		if proto == wire.ProtoConvo {
			msg.Body = replies[off : off+p.Onions]
			off += p.Onions
		}
		if p.Conn.front {
			msg.Kind = wire.KindFrontReplies
			if proto == wire.ProtoConvo {
				msg.M = uint32(p.Onions) / m
			}
		}
		p.Conn.Deliver(msg)
	}
}

// abandon retires the round without building a batch. A dead round left
// pending would keep absorbing submissions, eating onions that clients
// meant for the next live round.
func (r *Round) abandon() {
	r.retire()
	r.close()
}

// retire takes the round out of the collector's pending table.
func (r *Round) retire() {
	r.co.mu.Lock()
	defer r.co.mu.Unlock()
	if r.co.pending[r.proto] == r {
		delete(r.co.pending, r.proto)
	}
}

func (r *Round) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
}

// Package wire defines Vuvuzela's wire protocol: length-prefixed frames
// carrying round announcements, client submissions, onion batches moving
// down the server chain, replies moving back up, and dialing bucket
// publication/fetch (paper §7's RPC layer).
//
// The encoding is a simple deterministic binary format: every frame is a
// 4-byte big-endian length followed by a fixed header and a list of
// byte-slices. All multi-byte integers are big-endian.
//
// The byte-level specification of this layer — and of the secure
// transport every inter-server leg wraps it in — is docs/WIRE.md; the
// fuzz targets in fuzz_test.go are the executable form of its "MUST
// reject" clauses.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Kind identifies a message type.
type Kind byte

// Message kinds.
const (
	// KindAnnounce: entry server → client. Announces a round is open for
	// submissions. Uses Proto, Round, M (dialing bucket count). On the
	// frontend pipe, Bucket additionally carries the coordinator's
	// submit-timeout budget in milliseconds so frontends can close their
	// partial batch before the coordinator gives up on them; clients
	// ignore the field.
	KindAnnounce Kind = iota + 1
	// KindSubmit: client → entry server. One onion for the round.
	KindSubmit
	// KindReply: entry server → client. The client's onion reply.
	KindReply
	// KindBatch: server i → server i+1. All onions of a round.
	KindBatch
	// KindReplies: server i+1 → server i. The batch's replies, aligned
	// with the forwarded batch order.
	KindReplies
	// 6 is reserved, never sent: a retired last server → CDN push, left
	// blank so the kinds after it keep their values (docs/WIRE.md §2.1).
	_
	// KindBucketReq: client → CDN. Fetch one bucket of a round.
	KindBucketReq
	// KindBucketResp: CDN → client. The requested bucket blob.
	KindBucketResp
	// KindError: server i+1 → server i. The round failed on the
	// successor; Body[0] carries the error string. Sent in place of
	// KindReplies so the predecessor sees the cause instead of
	// diagnosing a bare EOF from a closed connection.
	KindError
	// KindShardRound: last-hop shard router → shard server. One shard's
	// partition of a conversation round's innermost exchange requests;
	// Bucket carries the shard index.
	KindShardRound
	// KindShardReply: shard server → router. The sub-batch's replies,
	// aligned with the KindShardRound request order; Bucket echoes the
	// shard index.
	KindShardReply
	// KindFrontBatch: entry frontend → coordinator. One frontend's
	// validated partial batch for a round: M carries the number of
	// clients the frontend collected, Body their M×perClient onions in
	// the frontend's demux order (client i owns
	// Body[i·perClient:(i+1)·perClient]). Exactly one per frontend per
	// round; an empty round is M=0 with no body.
	KindFrontBatch
	// KindFrontReplies: coordinator → entry frontend. The frontend's
	// slice of the round's replies, aligned with its KindFrontBatch
	// order, M the number of clients behind the frontend (conversation),
	// or the round acknowledgement with M echoing
	// the bucket count and an empty body (dialing).
	KindFrontReplies
)

// ErrorMessage builds a KindError response for a failed round.
func ErrorMessage(proto Proto, round uint64, err error) *Message {
	return &Message{Kind: KindError, Proto: proto, Round: round, Body: [][]byte{[]byte(err.Error())}}
}

// ErrorString extracts the error text carried by a KindError message.
func (m *Message) ErrorString() string {
	if m.Kind != KindError || len(m.Body) == 0 || len(m.Body[0]) == 0 {
		return "unknown remote error"
	}
	return string(m.Body[0])
}

// ErrShardFrame indicates a structurally valid frame that is not an
// acceptable shard round or shard reply — wrong kind, wrong protocol, a
// shard index that is out of range or misrouted, a stale round (e.g. a
// duplicate reply from an earlier round still sitting in the stream), or
// a reply count that does not cover the sub-batch.
var ErrShardFrame = errors.New("wire: bad shard frame")

// ShardRoundMessage builds the fan-out frame carrying shard `shard`'s
// partition of a conversation round's innermost exchange requests.
func ShardRoundMessage(round uint64, shard uint32, sub [][]byte) *Message {
	return &Message{Kind: KindShardRound, Proto: ProtoConvo, Round: round, Bucket: shard, Body: sub}
}

// ShardReplyMessage builds a shard server's response: one reply per
// request of the KindShardRound frame, in the same order.
func ShardReplyMessage(round uint64, shard uint32, replies [][]byte) *Message {
	return &Message{Kind: KindShardReply, Proto: ProtoConvo, Round: round, Bucket: shard, Body: replies}
}

// CheckShardRound validates an incoming frame as the round fan-out for
// shard `shard` of a `numShards`-way partition. It never panics on
// attacker-controlled frames; any mismatch is rejected with ErrShardFrame.
func CheckShardRound(m *Message, shard, numShards uint32) error {
	switch {
	case m == nil:
		return fmt.Errorf("%w: nil message", ErrShardFrame)
	case m.Kind != KindShardRound:
		return fmt.Errorf("%w: kind %d, want shard round", ErrShardFrame, m.Kind)
	case m.Proto != ProtoConvo:
		return fmt.Errorf("%w: proto %d, want convo", ErrShardFrame, m.Proto)
	case m.Bucket >= numShards:
		return fmt.Errorf("%w: shard index %d out of range for %d shards", ErrShardFrame, m.Bucket, numShards)
	case m.Bucket != shard:
		return fmt.Errorf("%w: misrouted: frame for shard %d arrived at shard %d", ErrShardFrame, m.Bucket, shard)
	}
	return nil
}

// CheckShardReply validates a shard server's response to a
// ShardRoundMessage for the given round and shard: it must echo the
// round and shard index and return exactly one reply per request. A
// stale frame (duplicate reply from an earlier round) fails the round
// check, so a desynchronized connection is detected instead of replies
// silently shifting between rounds.
func CheckShardReply(m *Message, round uint64, shard uint32, wantReplies int) error {
	switch {
	case m == nil:
		return fmt.Errorf("%w: nil message", ErrShardFrame)
	case m.Kind != KindShardReply:
		return fmt.Errorf("%w: kind %d, want shard reply", ErrShardFrame, m.Kind)
	case m.Proto != ProtoConvo:
		return fmt.Errorf("%w: proto %d, want convo", ErrShardFrame, m.Proto)
	case m.Round != round:
		return fmt.Errorf("%w: reply for round %d, want %d", ErrShardFrame, m.Round, round)
	case m.Bucket != shard:
		return fmt.Errorf("%w: reply from shard %d, want %d", ErrShardFrame, m.Bucket, shard)
	case len(m.Body) != wantReplies:
		return fmt.Errorf("%w: %d replies for %d requests", ErrShardFrame, len(m.Body), wantReplies)
	}
	return nil
}

// ErrFrontFrame indicates a structurally valid frame that is not an
// acceptable frontend batch or reply slice — wrong kind, a body that is
// not exactly M×perClient onions, or a reply slice whose round, proto,
// or length does not match what the frontend forwarded.
var ErrFrontFrame = errors.New("wire: bad frontend frame")

// FrontBatchMessage builds the frontend→coordinator frame carrying one
// frontend's partial batch for a round: `clients` clients' onions,
// perClient each, flattened in the frontend's demux order.
func FrontBatchMessage(proto Proto, round uint64, clients uint32, onions [][]byte) *Message {
	return &Message{Kind: KindFrontBatch, Proto: proto, Round: round, M: clients, Body: onions}
}

// CheckFrontBatch validates an incoming frontend partial batch
// structurally: it must be a KindFrontBatch for a known protocol whose
// body is exactly M×perClient onions. It never panics on
// attacker-controlled frames. Round routing is the receiver's job — a
// batch for a closed round is dropped like any late client submission.
func CheckFrontBatch(m *Message, perClient int) error {
	switch {
	case m == nil:
		return fmt.Errorf("%w: nil message", ErrFrontFrame)
	case m.Kind != KindFrontBatch:
		return fmt.Errorf("%w: kind %d, want front batch", ErrFrontFrame, m.Kind)
	case m.Proto != ProtoConvo && m.Proto != ProtoDial:
		return fmt.Errorf("%w: unknown proto %d", ErrFrontFrame, m.Proto)
	case perClient < 1:
		return fmt.Errorf("%w: invalid per-client onion count %d", ErrFrontFrame, perClient)
	case m.M > MaxBodyParts:
		return fmt.Errorf("%w: client count %d exceeds the frame bound", ErrFrontFrame, m.M)
	case int64(m.M)*int64(perClient) != int64(len(m.Body)):
		return fmt.Errorf("%w: %d onions for %d clients × %d per client", ErrFrontFrame, len(m.Body), m.M, perClient)
	}
	return nil
}

// CheckFrontReplies validates the coordinator's reply slice for a round
// this frontend forwarded: kind, proto, and round must match the
// outstanding batch and the body must carry exactly wantReplies replies
// (0 for dialing acknowledgements). A stale round fails the check, so a
// desynchronized pipe is detected instead of replies silently shifting
// between rounds.
func CheckFrontReplies(m *Message, proto Proto, round uint64, wantReplies int) error {
	switch {
	case m == nil:
		return fmt.Errorf("%w: nil message", ErrFrontFrame)
	case m.Kind != KindFrontReplies:
		return fmt.Errorf("%w: kind %d, want front replies", ErrFrontFrame, m.Kind)
	case m.Proto != proto:
		return fmt.Errorf("%w: proto %d, want %d", ErrFrontFrame, m.Proto, proto)
	case m.Round != round:
		return fmt.Errorf("%w: replies for round %d, want %d", ErrFrontFrame, m.Round, round)
	case len(m.Body) != wantReplies:
		return fmt.Errorf("%w: %d replies for %d forwarded requests", ErrFrontFrame, len(m.Body), wantReplies)
	}
	return nil
}

// MaxRoundsInFlight bounds how many conversation rounds may be announced
// before the oldest round's reply is delivered. Clients keep per-round
// reply state for this many rounds; an entry server must never pipeline
// deeper than this or clients would discard replies for rounds they have
// already pruned.
const MaxRoundsInFlight = 8

// Proto identifies which protocol a round belongs to.
type Proto byte

// Protocols.
const (
	// ProtoConvo marks conversation-protocol rounds (§3–4).
	ProtoConvo Proto = 1
	// ProtoDial marks dialing-protocol rounds (§5).
	ProtoDial Proto = 2
)

// Message is the single frame structure shared by all kinds; unused
// fields are zero.
type Message struct {
	Kind   Kind     // message type (one of the Kind* constants)
	Proto  Proto    // protocol the round belongs to
	Round  uint64   // round number
	M      uint32   // dialing bucket count (KindAnnounce, KindBatch)
	Bucket uint32   // bucket index (KindBucketReq/Resp), shard index (KindShard*)
	Body   [][]byte // onions, bucket blobs, or a single payload at [0]
}

const (
	headerSize = 1 + 1 + 8 + 4 + 4 + 4 // kind, proto, round, m, bucket, count
	// MaxFrameSize bounds a frame to guard against resource-exhaustion
	// from malformed peers. Large rounds are still comfortably within
	// this (1M onions × ~420 B ≈ 420 MB < 1 GB).
	MaxFrameSize = 1 << 30
	// MaxBodyParts bounds the number of slices in one frame: a round's
	// batch, real onions plus noise, must fit it (config.Chain.Validate
	// refuses noise parameters that cannot).
	MaxBodyParts = 1 << 24
)

var (
	// ErrFrameTooLarge indicates an incoming frame exceeded MaxFrameSize
	// or the connection's own receive limit (SetRecvLimit).
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrMalformed indicates a structurally invalid frame.
	ErrMalformed = errors.New("wire: malformed frame")
)

// FitsFrame reports whether a body of `parts` parts holding `bytes` bytes
// in all fits one frame: at most MaxBodyParts parts, and at most
// MaxFrameSize encoded.
func FitsFrame(parts, bytes int) bool {
	return parts <= MaxBodyParts && headerSize+4*parts+bytes <= MaxFrameSize
}

// size returns the encoded payload size of m (excluding the frame length
// prefix).
func (m *Message) size() int {
	n := headerSize
	for _, b := range m.Body {
		n += 4 + len(b)
	}
	return n
}

// Encode serializes the message payload (without the frame length).
func (m *Message) Encode() []byte {
	return m.appendTo(make([]byte, 0, m.size()))
}

// appendTo appends the encoded payload to buf.
func (m *Message) appendTo(buf []byte) []byte {
	buf = append(buf, byte(m.Kind), byte(m.Proto))
	buf = binary.BigEndian.AppendUint64(buf, m.Round)
	buf = binary.BigEndian.AppendUint32(buf, m.M)
	buf = binary.BigEndian.AppendUint32(buf, m.Bucket)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(m.Body)))
	for _, b := range m.Body {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
		buf = append(buf, b...)
	}
	return buf
}

// Decode parses a message payload produced by Encode.
func Decode(buf []byte) (*Message, error) {
	if len(buf) < headerSize {
		return nil, ErrMalformed
	}
	var m Message
	m.Kind = Kind(buf[0])
	m.Proto = Proto(buf[1])
	m.Round = binary.BigEndian.Uint64(buf[2:10])
	m.M = binary.BigEndian.Uint32(buf[10:14])
	m.Bucket = binary.BigEndian.Uint32(buf[14:18])
	count := binary.BigEndian.Uint32(buf[18:22])
	if count > MaxBodyParts {
		return nil, ErrMalformed
	}
	rest := buf[22:]
	if count > 0 {
		m.Body = make([][]byte, 0, count)
	}
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, ErrMalformed
		}
		n := binary.BigEndian.Uint32(rest[:4])
		rest = rest[4:]
		if uint32(len(rest)) < n {
			return nil, ErrMalformed
		}
		m.Body = append(m.Body, rest[:n:n])
		rest = rest[n:]
	}
	if len(rest) != 0 {
		return nil, ErrMalformed
	}
	return &m, nil
}

// Conn wraps a stream with buffered, framed message I/O. Reads and writes
// may proceed concurrently with each other, but each direction must be
// used by one goroutine at a time (callers serialize writes with their own
// mutex if needed).
type Conn struct {
	r *bufio.Reader
	w *bufio.Writer
	c io.Closer

	// limit is the largest frame Recv accepts (SetRecvLimit).
	limit atomic.Uint32
	// reuse enables the recycled receive buffer (ReuseRecvBuffer).
	reuse bool
	// rbuf is the recycled payload buffer Recv reads into when reuse is
	// on; decoded messages alias it until the next Recv.
	rbuf []byte
	// sbuf is the buffer Send encodes every frame into.
	sbuf []byte
}

// NewConn wraps rwc (typically a net.Conn) for framed message exchange.
func NewConn(rwc io.ReadWriteCloser) *Conn {
	c := &Conn{
		r: bufio.NewReaderSize(rwc, 1<<16),
		w: bufio.NewWriterSize(rwc, 1<<16),
		c: rwc,
	}
	c.limit.Store(MaxFrameSize)
	return c
}

// SetRecvLimit sets the largest frame this connection's Recv accepts, in
// place of the global MaxFrameSize, to a frame of `parts` body parts of
// partLen bytes each (never more than MaxFrameSize). The length prefix is
// all a receiver has seen when it sizes the payload buffer, so on a leg
// anyone can dial the limit is what four bytes from a stranger can make
// it allocate. A longer frame fails Recv with ErrFrameTooLarge before any
// allocation; the stream is then out of sync and must be closed. Safe to
// call while another goroutine is in Recv.
func (c *Conn) SetRecvLimit(parts, partLen int) {
	c.limit.Store(uint32(min(headerSize+uint64(parts)*uint64(4+partLen), MaxFrameSize)))
}

// ReuseRecvBuffer switches Recv to a recycled per-connection receive
// buffer instead of allocating one per message. With reuse on, the
// *Message returned by Recv — including every Body slice — aliases that
// buffer and is valid only until the next Recv on this Conn; callers
// must finish with (or copy out of) one message before receiving the
// next. Meant for request/reply loops that fully consume each message
// per iteration — every served chain and shard leg, whose servers use
// the received frame as the round's working memory, and the router's
// side of the shard leg (docs/WIRE.md §2, "Buffer ownership").
func (c *Conn) ReuseRecvBuffer(on bool) { c.reuse = on }

// Send writes one message frame and flushes it. The frame is encoded into
// a buffer the connection keeps and grows to its largest frame, so a
// steady stream of frames allocates nothing; the transport is handed the
// same bytes in the same writes as if each frame had a buffer of its own.
// m is not retained.
func (c *Conn) Send(m *Message) error {
	n := m.size()
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	if cap(c.sbuf) < 4+n {
		c.sbuf = make([]byte, 0, 4+n)
	}
	frame := m.appendTo(binary.BigEndian.AppendUint32(c.sbuf[:0], uint32(n)))
	if _, err := c.w.Write(frame[:4]); err != nil {
		return fmt.Errorf("wire: send header: %w", err)
	}
	if _, err := c.w.Write(frame[4:]); err != nil {
		return fmt.Errorf("wire: send payload: %w", err)
	}
	return c.w.Flush()
}

// Recv reads one message frame. With ReuseRecvBuffer enabled the
// returned message aliases the connection's recycled buffer and is valid
// only until the next Recv.
func (c *Conn) Recv() (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > c.limit.Load() {
		return nil, ErrFrameTooLarge
	}
	var payload []byte
	if c.reuse {
		if cap(c.rbuf) < int(n) {
			c.rbuf = make([]byte, n)
		}
		payload = c.rbuf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, fmt.Errorf("wire: recv payload: %w", err)
	}
	return Decode(payload)
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.c.Close() }

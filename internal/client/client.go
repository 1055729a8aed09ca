// Package client implements the full Vuvuzela client (paper §3, §7): it
// holds the user's long-term keys, keeps a connection to the entry server
// (redialing it whenever it drops), answers every round announcement with
// exactly one fixed-size request (real or fake — Algorithm 1 steps
// 1a/1b), manages the active conversation, dials through the dialing
// protocol, downloads and trial-decrypts invitation buckets from the CDN,
// and implements the client-side retransmission the paper defers to the
// client ("Vuvuzela deals with these issues through retransmission at a
// higher level (in the client itself)", §3.1).
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"vuvuzela/internal/cdn"
	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// Config describes a client.
type Config struct {
	// Pub is the user's long-term public key.
	Pub box.PublicKey
	// Priv is the user's long-term private key.
	Priv box.PrivateKey

	// ChainPubs are the server chain's public keys, known ahead of time
	// (§3).
	ChainPubs []box.PublicKey

	// Net is the transport used to reach the entry server and CDN.
	Net transport.Network
	// EntryAddr is the entry server's listen address.
	EntryAddr string
	// CDNAddr is the invitation CDN's listen address.
	CDNAddr string

	// MaxConversations caps how many conversations can be active at
	// once (default 1, the paper's prototype). The coordinator announces
	// the fixed exchange count per round; a client whose cap is below it
	// fills the remaining slots with fake requests, and one whose cap
	// exceeds it can only use as many slots as announced (§9 "Multiple
	// conversations").
	MaxConversations int
}

// Event is something the client surfaces to the application.
type Event interface{ isEvent() }

// MessageEvent delivers an in-order conversation message from the peer.
type MessageEvent struct {
	Peer  box.PublicKey // the conversation partner's long-term public key
	Text  string        // the decrypted message body
	Round uint64        // the conversation round the message arrived in
}

// InvitationEvent reports an incoming call found in the user's invitation
// dead drop.
type InvitationEvent struct {
	From  box.PublicKey // the caller's long-term public key
	Round uint64        // the dialing round the invitation was found in
}

// ConvoRoundEvent reports that a conversation round completed (useful for
// pacing in tests and UIs).
type ConvoRoundEvent struct {
	Round uint64 // the completed conversation round
}

// DialRoundEvent reports that a dialing round completed and its bucket was
// scanned.
type DialRoundEvent struct {
	Round uint64 // the completed dialing round
}

// ErrorEvent reports a background failure (connection loss etc.).
type ErrorEvent struct {
	Err error // the failure; the client keeps running where it can
}

func (MessageEvent) isEvent()    {}
func (InvitationEvent) isEvent() {}
func (ConvoRoundEvent) isEvent() {}
func (DialRoundEvent) isEvent()  {}
func (ErrorEvent) isEvent()      {}

// eventBuf is how many events Events holds for an application that has
// not drained it; beyond that they are dropped (see Events).
const eventBuf = 256

// sendWindow is the go-back-N window: how many messages may be in flight
// unacknowledged. One data frame is sent per round (the protocol's fixed
// rate), so the window is what lets clients "pipeline conversation
// messages, sending a new message every round even before receiving
// responses from previous rounds" (§8.3).
const sendWindow = 4

// pendingMsg is an assigned-but-unacknowledged outgoing message.
type pendingMsg struct {
	seq  uint32
	text []byte
}

// conversation holds one peer's conversation state, including the
// go-back-N retransmission machinery.
type conversation struct {
	peer   box.PublicKey
	secret *[32]byte

	sendQ   [][]byte     // queued texts not yet assigned a sequence
	sendBuf []pendingMsg // in-flight window, oldest first
	nextSeq uint32       // next sequence number to assign
	cursor  uint32       // next sequence to transmit this cycle
	recvSeq uint32       // highest in-order sequence delivered
}

// pendingSlot remembers one exchange slot of a submitted conversation
// round until its reply arrives; a fake request's slot has no secret.
type pendingSlot struct {
	keys   []*[box.KeySize]byte
	secret *[32]byte
	peer   box.PublicKey
}

// Client is a running Vuvuzela client.
type Client struct {
	cfg Config
	// chain is cfg.ChainPubs parsed once: every round's onions agree
	// their keys on its tables.
	chain  []*box.Peer
	events chan Event

	// pending is the reply state of the submitted conversation rounds,
	// by round. Only the loop touches it.
	pending map[uint64][]pendingSlot

	mu sync.Mutex
	// entry is the current entry connection. Only the loop replaces it,
	// under mu, so the loop reads it without.
	entry    *wire.Conn
	actives  []*conversation // active conversations, slot order
	current  *conversation   // target of Send
	convos   map[box.PublicKey]*conversation
	dialTo   []box.PublicKey // queued outgoing invitations
	closeCh  chan struct{}   // closed under mu
	closeOne sync.Once
	done     chan struct{} // closed when the loop returns

	cdnMu   sync.Mutex
	cdnConn *wire.Conn
}

var (
	// ErrNoConversation is returned by Send when no conversation is active.
	ErrNoConversation = errors.New("client: no active conversation")
	// ErrTooManyConversations is returned when activating another
	// conversation would exceed the MaxConversations cap.
	ErrTooManyConversations = errors.New("client: conversation limit reached; end one first")
	// ErrClosed is returned once the client has been closed.
	ErrClosed = errors.New("client: closed")
)

// Dial connects to the entry server and starts the client loop. It parses
// cfg.ChainPubs first and refuses a key box.NewPeer refuses.
func Dial(cfg Config) (*Client, error) {
	if cfg.MaxConversations <= 0 {
		cfg.MaxConversations = 1
	}
	chain, err := box.NewPeers(cfg.ChainPubs)
	if err != nil {
		return nil, fmt.Errorf("client: chain key: %w", err)
	}
	raw, err := cfg.Net.Dial(cfg.EntryAddr)
	if err != nil {
		return nil, fmt.Errorf("client: connecting to entry server: %w", err)
	}
	c := &Client{
		cfg:     cfg,
		chain:   chain,
		events:  make(chan Event, eventBuf),
		convos:  make(map[box.PublicKey]*conversation),
		pending: make(map[uint64][]pendingSlot),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.loop(raw)
	return c, nil
}

// Events returns the channel of client events, closed once the client is
// closed. The application must drain it; the client drops events when the
// buffer is full rather than stall the round loop (rounds are
// time-critical: a client that misses the submission window loses the
// round).
func (c *Client) Events() <-chan Event { return c.events }

// PublicKey returns the client's long-term public key.
func (c *Client) PublicKey() box.PublicKey { return c.cfg.Pub }

// emit delivers an event without blocking the round loop; only the loop
// calls it.
func (c *Client) emit(e Event) {
	select {
	case c.events <- e:
	default:
	}
}

// DialUser queues an invitation to peer for the next dialing round (§5).
func (c *Client) DialUser(peer box.PublicKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dialTo = append(c.dialTo, peer)
}

// StartConversation activates a conversation with peer and makes it the
// target of Send. The caller starts one preemptively after dialing; the
// callee starts one on accepting an invitation (§3). With
// MaxConversations > 1 several conversations run concurrently, each
// occupying one of the fixed per-round exchange slots (§9); when the
// limit is reached it returns ErrTooManyConversations ("users can have a
// fixed number of conversations per round, so a user may end one
// conversation to make room for another", §5).
func (c *Client) StartConversation(peer box.PublicKey) error {
	secret, err := convo.DeriveSecret(&c.cfg.Priv, &peer)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	conv, ok := c.convos[peer]
	if !ok {
		conv = &conversation{peer: peer, secret: secret, nextSeq: 1, cursor: 1}
		c.convos[peer] = conv
	}
	if !slices.Contains(c.actives, conv) {
		if len(c.actives) >= c.cfg.MaxConversations {
			return ErrTooManyConversations
		}
		c.actives = append(c.actives, conv)
	}
	c.current = conv
	return nil
}

// EndConversation deactivates the current conversation; its slot reverts
// to fake requests.
func (c *Client) EndConversation() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.end(c.current)
}

// EndConversationWith deactivates the conversation with a specific peer.
func (c *Client) EndConversationWith(peer box.PublicKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.end(c.convos[peer])
}

// end drops conv (nil is a no-op) from the active slots; if it was the
// target of Send, the most recently started active conversation becomes
// the target. Callers hold c.mu.
func (c *Client) end(conv *conversation) {
	c.actives = slices.DeleteFunc(c.actives, func(a *conversation) bool { return a == conv })
	if c.current == conv {
		c.current = nil
		if len(c.actives) > 0 {
			c.current = c.actives[len(c.actives)-1]
		}
	}
}

// ActivePeer returns the current conversation's peer, if any.
func (c *Client) ActivePeer() (box.PublicKey, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current == nil {
		return box.PublicKey{}, false
	}
	return c.current.peer, true
}

// ActivePeers returns every active conversation's peer, in slot order.
func (c *Client) ActivePeers() []box.PublicKey {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]box.PublicKey, len(c.actives))
	for i, a := range c.actives {
		out[i] = a.peer
	}
	return out
}

// Send queues text on the current conversation. Messages are queued if
// the user types faster than one per round (§3.2) and retransmitted until
// acknowledged.
func (c *Client) Send(text string) error {
	c.mu.Lock()
	cur := c.current
	c.mu.Unlock()
	if cur == nil {
		return ErrNoConversation
	}
	return c.SendTo(cur.peer, text)
}

// SendTo queues text on the conversation with a specific active peer.
func (c *Client) SendTo(peer box.PublicKey, text string) error {
	if len(text) > MaxTextLen {
		return fmt.Errorf("client: message exceeds %d bytes", MaxTextLen)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	conv := c.convos[peer]
	if conv == nil || !slices.Contains(c.actives, conv) {
		return ErrNoConversation
	}
	conv.sendQ = append(conv.sendQ, []byte(text))
	return nil
}

// QueueLen returns how many outgoing messages are queued or in flight
// across all active conversations.
func (c *Client) QueueLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, a := range c.actives {
		n += len(a.sendQ) + len(a.sendBuf)
	}
	return n
}

// Close disconnects the client, stopping any redial, and returns once its
// loop has exited (after a dial already in progress returns).
func (c *Client) Close() error {
	c.closeOne.Do(func() {
		c.mu.Lock()
		close(c.closeCh)
		entry := c.entry
		c.mu.Unlock()
		if entry != nil {
			entry.Close()
		}
		c.cdnMu.Lock()
		if c.cdnConn != nil {
			c.cdnConn.Close()
		}
		c.cdnMu.Unlock()
	})
	<-c.done
	return nil
}

// loop is the client's reactor: it serves the entry connection Dial
// opened and, when a connection drops other than through Close, redials
// the entry address on transport.Redial's backoff. A round's members are
// fixed at its announcement, so a round announced before the client is
// back runs without it.
func (c *Client) loop(raw net.Conn) {
	defer close(c.done)
	defer close(c.events)
	transport.Redial(c.cfg.Net, c.cfg.EntryAddr, raw, c.closeCh, c.serve)
}

// serve answers round announcements and processes replies on one entry
// connection until it fails, then reports the loss; heard reports whether
// the connection carried any message. The conversations and their
// go-back-N state carry over to the next connection; the reply state of
// the rounds submitted on this one does not, so their messages are
// retransmitted like any other unacknowledged ones.
func (c *Client) serve(raw net.Conn) (heard bool) {
	c.mu.Lock()
	select {
	case <-c.closeCh:
		c.mu.Unlock()
		raw.Close()
		return false
	default:
	}
	c.entry = wire.NewConn(raw)
	c.mu.Unlock()
	for {
		msg, err := c.entry.Recv()
		if err != nil {
			select {
			case <-c.closeCh:
			default:
				c.emit(ErrorEvent{Err: err})
			}
			clear(c.pending)
			return heard
		}
		heard = true
		switch {
		case msg.Kind == wire.KindAnnounce && msg.Proto == wire.ProtoConvo:
			c.onConvoAnnounce(msg.Round, msg.M)
		case msg.Kind == wire.KindReply && msg.Proto == wire.ProtoConvo:
			c.onConvoReply(msg)
		case msg.Kind == wire.KindAnnounce && msg.Proto == wire.ProtoDial:
			c.onDialAnnounce(msg.Round, msg.M)
		case msg.Kind == wire.KindReply && msg.Proto == wire.ProtoDial:
			c.onDialComplete(msg.Round, msg.M)
		}
	}
}

// onConvoAnnounce builds and submits this round's exchange requests
// (Algorithm 1): one per announced slot, filling slots without an active
// conversation with indistinguishable fakes (step 1b).
func (c *Client) onConvoAnnounce(round uint64, exchanges uint32) {
	k := int(exchanges)
	if k <= 0 {
		k = 1
	}
	c.mu.Lock()
	slots := make([]pendingSlot, k)
	bodies := make([][]byte, k)
	for i, conv := range c.actives[:min(k, len(c.actives))] {
		slots[i] = pendingSlot{secret: conv.secret, peer: conv.peer}
		bodies[i] = conv.roundPayload()
	}
	c.mu.Unlock()

	onions := make([][]byte, k)
	for i := range slots {
		// A slot without a secret gets the fake request (step 1b).
		req, err := convo.BuildRequest(slots[i].secret, round, &c.cfg.Pub, bodies[i])
		if err == nil {
			onions[i], slots[i].keys, err = c.wrap(req.Marshal(), round, nil)
		}
		if err != nil {
			c.emit(ErrorEvent{Err: err})
			return
		}
	}

	c.pending[round] = slots
	// Bound pending state: replies arrive in round order, so anything
	// older than the protocol's in-flight window is lost.
	for r := range c.pending {
		if r+wire.MaxRoundsInFlight < round {
			delete(c.pending, r)
		}
	}
	c.submit(wire.ProtoConvo, round, onions)
}

// submit sends one round's requests to the entry.
func (c *Client) submit(proto wire.Proto, round uint64, onions [][]byte) {
	err := c.entry.Send(&wire.Message{Kind: wire.KindSubmit, Proto: proto, Round: round, Body: onions})
	if err != nil {
		c.emit(ErrorEvent{Err: err})
	}
}

// wrap onion-encrypts payload for the whole chain: onion.Wrap's bytes and
// reply keys, with every layer agreed on the chain's tables. rng is nil
// (crypto/rand) but in tests.
func (c *Client) wrap(payload []byte, round uint64, rng io.Reader) ([]byte, []*[box.KeySize]byte, error) {
	path, err := onion.NewPath(c.chain, rng)
	if err != nil {
		return nil, nil, err
	}
	return path.Seal(payload, round, 0), path.Keys(), nil
}

// onConvoReply unwraps a round's replies and feeds each slot's
// conversation state machine.
func (c *Client) onConvoReply(msg *wire.Message) {
	slots := c.pending[msg.Round]
	delete(c.pending, msg.Round)
	if slots == nil || len(msg.Body) != len(slots) {
		return
	}
	for i, slot := range slots {
		innermost, err := onion.UnwrapReply(msg.Body[i], msg.Round, 0, slot.keys)
		if err != nil {
			c.emit(ErrorEvent{Err: err})
			continue
		}
		if slot.secret != nil {
			if payload, ok := convo.OpenReply(slot.secret, msg.Round, &slot.peer, innermost); ok {
				c.handlePeerPayload(slot.peer, payload, msg.Round)
			}
		}
	}
	c.emit(ConvoRoundEvent{Round: msg.Round})
}

// handlePeerPayload runs the retransmission state machine on a decrypted
// peer payload.
func (c *Client) handlePeerPayload(peer box.PublicKey, payload []byte, round uint64) {
	hdr, text, err := parseFrame(payload)
	if err != nil {
		return
	}
	c.mu.Lock()
	conv := c.convos[peer]
	if conv == nil {
		c.mu.Unlock()
		return
	}
	// Cumulative acknowledgment: the peer confirmed everything ≤ hdr.Ack.
	for len(conv.sendBuf) > 0 && conv.sendBuf[0].seq <= hdr.Ack {
		conv.sendBuf = conv.sendBuf[1:]
	}
	if conv.cursor <= hdr.Ack {
		conv.cursor = hdr.Ack + 1
	}
	var deliver []byte
	if hdr.Type == frameData {
		switch {
		case hdr.Seq == conv.recvSeq+1:
			conv.recvSeq = hdr.Seq
			deliver = text
		case hdr.Seq <= conv.recvSeq:
			// Duplicate from a retransmission: already delivered; the
			// cumulative ack we piggyback next round covers it.
		default:
			// Gap: go-back-N receivers drop out-of-order frames; the
			// sender's retransmission cycle will resend in order.
		}
	}
	c.mu.Unlock()
	if deliver != nil {
		c.emit(MessageEvent{Peer: peer, Text: string(deliver), Round: round})
	}
}

// roundPayload picks this round's outgoing frame: the next window slot, a
// go-back-N retransmission once the window is exhausted without ack
// progress, or an ack-only frame when nothing is queued. Callers hold
// c.mu.
func (cv *conversation) roundPayload() []byte {
	// Admit queued messages into the window.
	for len(cv.sendBuf) < sendWindow && len(cv.sendQ) > 0 {
		cv.sendBuf = append(cv.sendBuf, pendingMsg{seq: cv.nextSeq, text: cv.sendQ[0]})
		cv.sendQ = cv.sendQ[1:]
		cv.nextSeq++
	}
	if len(cv.sendBuf) == 0 {
		return buildFrame(frameAck, 0, cv.recvSeq, nil)
	}
	base := cv.sendBuf[0].seq
	end := cv.sendBuf[len(cv.sendBuf)-1].seq
	if cv.cursor < base || cv.cursor > end {
		cv.cursor = base // wrap: retransmit from the oldest unacked
	}
	msg := cv.sendBuf[cv.cursor-base]
	cv.cursor++
	return buildFrame(frameData, msg.seq, cv.recvSeq, msg.text)
}

// onDialAnnounce submits this dialing round's request: a queued invitation
// or the indistinguishable no-op (§5.2).
func (c *Client) onDialAnnounce(round uint64, m uint32) {
	c.mu.Lock()
	var recipient *box.PublicKey
	if len(c.dialTo) > 0 {
		r := c.dialTo[0]
		c.dialTo = c.dialTo[1:]
		recipient = &r
	}
	c.mu.Unlock()

	req, err := dial.BuildRequest(&c.cfg.Pub, recipient, m, nil)
	if err != nil {
		c.emit(ErrorEvent{Err: err})
		return
	}
	wireOnion, _, err := c.wrap(req.Marshal(), round, nil)
	if err != nil {
		c.emit(ErrorEvent{Err: err})
		return
	}
	c.submit(wire.ProtoDial, round, [][]byte{wireOnion})
}

// onDialComplete downloads and scans the user's invitation bucket for a
// finished dialing round (§5.1: "Each user downloads all invitations from
// their dead drop ... and tries to decrypt every invitation").
func (c *Client) onDialComplete(round uint64, m uint32) {
	if c.cfg.CDNAddr == "" {
		c.emit(DialRoundEvent{Round: round})
		return
	}
	bucket := dial.BucketOf(&c.cfg.Pub, m)
	blob, err := c.fetchBucket(round, bucket)
	if err != nil {
		c.emit(ErrorEvent{Err: err})
		return
	}
	bkt := &dial.Buckets{Round: round, M: m, Data: [][]byte{blob}}
	for _, inv := range dial.ScanBucket(bkt.Invitations(0), &c.cfg.Pub, &c.cfg.Priv) {
		c.emit(InvitationEvent{From: inv.Sender, Round: round})
	}
	c.emit(DialRoundEvent{Round: round})
}

// fetchBucket retrieves one bucket from the CDN, lazily maintaining the
// connection. A fetch that gets cdnMu after Close dials nothing: Close
// closes closeCh before it takes cdnMu to close the connection, so a
// connection opened here afterwards would outlive the client.
func (c *Client) fetchBucket(round uint64, bucket uint32) ([]byte, error) {
	c.cdnMu.Lock()
	defer c.cdnMu.Unlock()
	select {
	case <-c.closeCh:
		return nil, ErrClosed
	default:
	}
	for attempt := 0; ; attempt++ {
		if c.cdnConn == nil {
			raw, err := c.cfg.Net.Dial(c.cfg.CDNAddr)
			if err != nil {
				return nil, fmt.Errorf("client: connecting to CDN: %w", err)
			}
			c.cdnConn = wire.NewConn(raw)
		}
		blob, err := cdn.Fetch(c.cdnConn, round, bucket)
		if err == nil {
			return blob, nil
		}
		c.cdnConn.Close()
		c.cdnConn = nil
		if attempt == 1 {
			return nil, err
		}
	}
}

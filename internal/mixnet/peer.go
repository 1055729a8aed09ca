package mixnet

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// Peer is the dialing side of one secured request/response leg: the
// coordinator's entry leg into server 0, a chain server's hop to its
// successor, the last server's leg to one dead-drop shard. It holds at
// most one connection to Addr, dialed lazily, wrapped in
// transport.SecureClient (the handshake runs on the first Send), and
// replaced after a connection-level failure. Every such leg in the tree
// goes through Do, so the leg policy of docs/WIRE.md §2.2 — who redials,
// when a round is resent, what is never resent — is written once.
//
// The exported fields are the facts that differ per leg; set them before
// the first Do. Calls to Do on one Peer must not overlap (a leg carries
// one round at a time), so each caller keeps one Peer per protocol or per
// shard. Close may be called from any goroutine.
type Peer struct {
	// Net is the substrate the leg is dialed over.
	Net transport.Network
	// Addr is the remote listener's address.
	Addr string
	// Priv is this side's long-term key and Pub the key the remote
	// listener must prove it holds (from the chain descriptor).
	Priv box.PrivateKey
	// Pub is the remote listener's long-term public key.
	Pub box.PublicKey
	// Timeout, when positive, bounds the dial and each round trip (send
	// and receive together). Only the shard leg sets it: a chain hop
	// legitimately waits on the whole rest of the chain.
	Timeout time.Duration
	// ReuseRecv recycles one receive buffer across round trips: the
	// response returned by Do is then valid only until the next Do. Only
	// the shard leg sets it — its replies are merged and sealed before
	// the next round is sent, whereas the coordinator's replies outlive
	// the next Do under ConvoWindow > 1.
	ReuseRecv bool

	mu     sync.Mutex
	conn   *peerConn
	closed bool
}

// peerConn pairs the framed connection with the secured one beneath it,
// which is where per-round deadlines are set.
type peerConn struct {
	sec  *transport.Secure
	wire *wire.Conn
}

// ErrBadResponse marks an authenticated answer that is not an answer to
// the request: a frame that does not parse (it then also wraps
// wire.ErrMalformed or wire.ErrFrameTooLarge), or one of the wrong kind,
// protocol or round. The remote end holds the right key and said
// something wrong, so this is misbehaviour or a desynchronized stream,
// never an outage; the connection is dropped.
var ErrBadResponse = errors.New("mixnet: response does not answer the request")

// errPeerClosed is returned by Do after Close.
var errPeerClosed = errors.New("mixnet: peer closed")

// ChainLeg is the dialing side of a leg that carries whole batches — the
// entry leg or a chain hop: one Peer per protocol, because conversation
// and dialing rounds overlap in time and a connection carries one round
// at a time. The nil ChainLeg is a leg that is not networked.
type ChainLeg map[wire.Proto]*Peer

// NewChainLeg returns the leg to the chain server at addr holding pub.
func NewChainLeg(network transport.Network, addr string, priv box.PrivateKey, pub box.PublicKey) ChainLeg {
	leg := make(ChainLeg, 2)
	for _, proto := range []wire.Proto{wire.ProtoConvo, wire.ProtoDial} {
		leg[proto] = &Peer{Net: network, Addr: addr, Priv: priv, Pub: pub}
	}
	return leg
}

// Forward sends one round's batch down the leg and returns the replies
// (none for dialing) once they pass check, the caller's test of their
// shape (nil: none; see Peer.Do). A rejection comes back as a
// *RemoteError carrying the failing hop's own report for the caller to
// classify.
func (l ChainLeg) Forward(proto wire.Proto, round uint64, m uint32, batch [][]byte, check func(*wire.Message) error) ([][]byte, error) {
	resp, err := l[proto].Do(&wire.Message{Kind: wire.KindBatch, Proto: proto, Round: round, M: m, Body: batch}, check)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Close closes both Peers.
func (l ChainLeg) Close() {
	for _, p := range l {
		p.Close()
	}
}

// Do sends req and returns the answer to it: a frame of the matching
// reply kind (KindReplies for KindBatch, KindShardReply for
// KindShardRound) echoing req's protocol and round that passes check, the
// leg's own test of the answer's shape (nil: none). An echoed KindError
// is returned as a *RemoteError and keeps the connection — the remote end
// received the round and refused it. Any other failure drops the
// connection; after a connection-level failure (a stale connection from
// a remote restart, a cut mid-round) the round is resent once on a fresh
// one. That is safe because the remote end's strictly-increasing round
// check refuses a round it already consumed. It is never resent after a
// deadline (the remote end is up but not answering), an authentication
// failure (redialing a forger cannot help), or an authenticated frame
// that is malformed or does not answer the request.
func (p *Peer) Do(req *wire.Message, check func(*wire.Message) error) (*wire.Message, error) {
	for attempt := 0; ; attempt++ {
		c, err := p.connect()
		if err != nil {
			return nil, err
		}
		resp, err := p.roundTrip(c, req, check)
		if err == nil {
			return resp, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			return nil, err
		}
		p.drop(c)
		if attempt == 1 || !resendable(err) {
			return nil, fmt.Errorf("mixnet: round %d to %s: %w", req.Round, p.Addr, err)
		}
	}
}

// resendable reports whether a failed round trip was a connection-level
// failure, the only kind a fresh connection can cure.
func resendable(err error) bool {
	return !errors.Is(err, os.ErrDeadlineExceeded) && !errors.Is(err, transport.ErrAuth) && !errors.Is(err, ErrBadResponse)
}

func (p *Peer) roundTrip(c *peerConn, req *wire.Message, check func(*wire.Message) error) (*wire.Message, error) {
	if p.Timeout > 0 {
		// The deadline covers the send too: a remote end that accepts
		// bytes but never drains them stalls the write, not the read.
		c.sec.SetDeadline(time.Now().Add(p.Timeout))
		defer c.sec.SetDeadline(time.Time{})
	}
	if err := c.wire.Send(req); err != nil {
		return nil, err
	}
	resp, err := c.wire.Recv()
	if errors.Is(err, wire.ErrMalformed) || errors.Is(err, wire.ErrFrameTooLarge) {
		// The bytes authenticated (the record layer verified them) but
		// are not a frame: the remote end itself is sending garbage.
		return nil, fmt.Errorf("%w: %w", ErrBadResponse, err)
	}
	if err != nil {
		return nil, err
	}
	want := wire.KindReplies
	if req.Kind == wire.KindShardRound {
		want = wire.KindShardReply
	}
	if resp.Proto == req.Proto && resp.Round == req.Round {
		switch resp.Kind {
		case wire.KindError:
			return nil, &RemoteError{Addr: p.Addr, Msg: resp.ErrorString()}
		case want:
			if check == nil {
				return resp, nil
			}
			if err := check(resp); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrBadResponse, err)
			}
			return resp, nil
		}
	}
	return nil, fmt.Errorf("%w: kind=%d proto=%d round=%d", ErrBadResponse, resp.Kind, resp.Proto, resp.Round)
}

// connect returns the live connection or dials one. The dial itself runs
// outside the lock, so Close never waits behind a slow connect.
func (p *Peer) connect() (*peerConn, error) {
	p.mu.Lock()
	c, closed := p.conn, p.closed
	p.mu.Unlock()
	if closed {
		// A dead process makes no new connections: a round unwinding
		// through a just-Closed server must not redial and resend.
		return nil, errPeerClosed
	}
	if c != nil {
		return c, nil
	}
	raw, err := p.dialWithin()
	if err != nil {
		return nil, fmt.Errorf("mixnet: dialing %s: %w", p.Addr, err)
	}
	sec := transport.SecureClient(raw, p.Priv, p.Pub)
	c = &peerConn{sec: sec, wire: wire.NewConn(sec)}
	c.wire.ReuseRecvBuffer(p.ReuseRecv)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		sec.Close()
		return nil, errPeerClosed
	}
	p.conn = c
	return c, nil
}

// dialWithin bounds Network.Dial by Timeout: a blackholed address would
// otherwise hold the round for the OS connect timeout. The Network
// interface has no cancellation, so on timeout the in-flight dial is
// left to a goroutine that closes the connection if it ever completes.
func (p *Peer) dialWithin() (net.Conn, error) {
	if p.Timeout <= 0 {
		return p.Net.Dial(p.Addr)
	}
	type result struct {
		c   net.Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := p.Net.Dial(p.Addr)
		ch <- result{c, err}
	}()
	t := time.NewTimer(p.Timeout)
	defer t.Stop()
	select {
	case res := <-ch:
		return res.c, res.err
	case <-t.C:
		go func() {
			if res := <-ch; res.c != nil {
				res.c.Close()
			}
		}()
		return nil, fmt.Errorf("connect timeout after %v", p.Timeout)
	}
}

func (p *Peer) drop(c *peerConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c.wire.Close()
	if p.conn == c {
		p.conn = nil
	}
}

// Close drops the connection and refuses every later dial.
func (p *Peer) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	if p.conn != nil {
		p.conn.wire.Close()
		p.conn = nil
	}
	return nil
}

// HandshakeWithin runs sc's handshake now, under DefaultHandshakeTimeout,
// so a peer that connects and never finishes it cannot pin a goroutine and
// a socket. It is for the two ends of the frontend pipe, which speak
// before they are spoken to and so cannot leave the handshake to the first
// frame. On failure sc is closed; on success the deadline is cleared.
func HandshakeWithin(sc *transport.Secure) error {
	sc.SetDeadline(time.Now().Add(DefaultHandshakeTimeout))
	if err := sc.Handshake(); err != nil {
		sc.Close()
		return err
	}
	sc.SetDeadline(time.Time{})
	return nil
}

// ServeLoop is the one accept lifecycle of every listener in the tree —
// chain servers, shard servers, the coordinator's client and frontend
// listeners, a frontend's client listener: one handler goroutine per
// connection (the handler wraps the raw stream itself), and a listener
// closed after closeCh reports a clean shutdown instead of an error.
func ServeLoop(l net.Listener, closeCh <-chan struct{}, handle func(net.Conn)) error {
	for {
		raw, err := l.Accept()
		if err != nil {
			select {
			case <-closeCh:
				return nil
			default:
				return err
			}
		}
		go handle(raw)
	}
}

// connSet is the accepting side of a chain or shard server process: of
// each Peer leg it serves, and of the last server's CDN. Handlers wrapped
// by track are tracked so that closeAll severs their connections: a
// "crashed" server must not keep serving rounds, or a dead store's
// buckets, through connections accepted before the crash (the sim
// harnesses rely on Close being a faithful process kill).
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// track wraps handle for ServeLoop: closeAll severs every connection
// handle is serving, and one accepted after closeAll is closed unserved.
func (cs *connSet) track(handle func(net.Conn)) func(net.Conn) {
	return func(c net.Conn) {
		cs.mu.Lock()
		if cs.closed {
			cs.mu.Unlock()
			c.Close()
			return
		}
		if cs.conns == nil {
			cs.conns = make(map[net.Conn]struct{})
		}
		cs.conns[c] = struct{}{}
		cs.mu.Unlock()
		defer func() {
			cs.mu.Lock()
			delete(cs.conns, c)
			cs.mu.Unlock()
		}()
		handle(c)
	}
}

// serveConn answers one accepted connection's requests until it ends;
// answer reporting false ends it. The answer is returned by value so that
// it stays on this loop's stack. One deadline (0 = DefaultHandshakeTimeout)
// covers the handshake, which the first Recv runs, and stays armed until
// the peer's FIRST authenticated frame: the handshake hello alone is
// replayable by a network observer (it completes the server's side without
// yielding the replayer a session key), so a completed handshake does not
// yet prove a live, keyed peer; only an authenticated record does. A real
// Peer dials lazily and sends its first frame at once, so the deadline
// never bites a healthy connection. Requests are received into one
// recycled buffer (wire.Conn.ReuseRecvBuffer): each is answer's to use as
// working memory — a chain server unwraps the batch in place in it — and
// is valid only until its answer is sent, so an answer must not alias it
// beyond the bytes Send copies out.
func serveConn(sc *transport.Secure, timeout time.Duration, answer func(*wire.Message) (wire.Message, bool)) {
	if timeout <= 0 {
		timeout = DefaultHandshakeTimeout
	}
	sc.SetDeadline(time.Now().Add(timeout))
	c := wire.NewConn(sc)
	defer c.Close()
	c.ReuseRecvBuffer(true)
	for first := true; ; first = false {
		msg, err := c.Recv()
		if err != nil {
			// Includes transport.ErrAuth: an unauthenticated or tampering
			// peer never gets a frame into a round.
			return
		}
		if first {
			sc.SetDeadline(time.Time{})
		}
		resp, ok := answer(msg)
		if !ok || c.Send(&resp) != nil {
			return
		}
	}
}

func (cs *connSet) closeAll() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.closed = true
	for c := range cs.conns {
		c.Close()
	}
	cs.conns = nil
}

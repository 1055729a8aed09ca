// Authenticated encryption for inter-server legs. The paper's threat
// model (§2.2, §4–5) lets the adversary control the network between
// servers, so every server-to-server connection must be an authenticated,
// encrypted channel keyed by the long-term keys in the chain descriptor —
// otherwise an active attacker on the router↔shard leg could read or
// forge dead-drop sub-batches, exactly the adversary class traffic-
// analysis attacks on messaging systems exploit.
//
// Secure wraps a net.Conn with a mutual-authentication handshake built
// from the crypto/box primitives already used for onions:
//
//	msg1 (client→server): version ‖ clientStaticPub ‖ clientEphPub ‖
//	      box(clientEphPub; key = DH(clientStatic, serverStatic))
//	msg2 (server→client): serverEphPub ‖
//	      box(serverEphPub ‖ clientEphPub; key = DH(clientStatic, serverStatic))
//
// The static-static box in msg1 proves the client holds the private key
// the server authorized; the box in msg2 echoes the client's fresh
// ephemeral, proving the server holds the key the client expected and
// preventing replay of an old msg2. Both sides then derive a session key
// from the ephemeral-ephemeral DH (forward secrecy) mixed with the full
// handshake transcript, and every subsequent byte flows in length-framed
// XSalsa20-Poly1305 records with per-direction nonce counters: a
// tampered, replayed, reordered, or cross-direction record fails
// authentication and poisons the connection with ErrAuth.
//
// Crypto failures surface as ErrAuth; plain I/O errors (deadlines,
// injected faults, closed peers) pass through unchanged so callers can
// tell "the network failed" from "someone is forging traffic" — the
// distinction the shard router's degradation policy depends on.
//
// The exact handshake transcript, record framing, nonce schedule, and
// alert semantics are specified byte-for-byte in docs/WIRE.md; the
// leg-by-leg authorization rules and what this channel does and does
// not defend against are in docs/THREAT_MODEL.md.
package transport

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vuvuzela/internal/crypto/box"
)

// ErrAuth marks every authentication failure on a Secure connection: a
// malformed or forged handshake, an unauthorized peer key, or a record
// that fails AEAD verification (tampered, replayed, reordered, or
// truncated traffic). It is never returned for plain I/O failures.
var ErrAuth = errors.New("transport: peer authentication failed")

const (
	secureVersion = 1

	// maxRecordPlain is the protocol cap on one record's data payload:
	// the largest plaintext any writer may put in a record and the
	// largest every reader MUST accept (docs/WIRE.md §1.3). The bound
	// caps what a malicious length prefix can make the reader allocate.
	maxRecordPlain = 1 << 20
	// recordPlain is the data payload this writer puts in one record
	// (docs/WIRE.md §1.3). Larger records amortize the per-record tag,
	// nonce setup, and framing over more payload; readers accept every
	// size up to maxRecordPlain, including the 64 KiB records of
	// pre-coalescing writers.
	recordPlain = 1 << 18
	// maxHandshakeFrame bounds the handshake messages (both are ~113
	// bytes; anything bigger is not this protocol).
	maxHandshakeFrame = 512
	// alertTimeout bounds the best-effort fatal-alert write after a
	// receive-side authentication failure.
	alertTimeout = 500 * time.Millisecond

	dirClientToServer = 1
	dirServerToClient = 2

	// Record types: the first plaintext byte of every record.
	recData = 0
	// recAlert is an authenticated fatal alert: the sender detected an
	// authentication failure on ITS receive direction and tells the
	// peer over the still-intact opposite direction before hanging up —
	// the way TLS sends a fatal alert. Without it, a man-in-the-middle
	// tampering with one direction would be indistinguishable from the
	// peer crashing, and a degradation policy would wrongly zero-fill
	// around an active attack. An attacker can still SUPPRESS the alert
	// (turning the failure into an apparent outage — plain denial of
	// service, which cutting the wire achieves anyway), but can never
	// forge one: alerts are sealed under the session key like any
	// record.
	recAlert = 1
)

// Secure is an authenticated encrypted channel over an inner net.Conn.
// The handshake runs lazily on first Read/Write (or explicitly via
// Handshake), so accept loops never block on a slow peer. After the
// handshake, Read and Write may be used concurrently with each other,
// each by one goroutine at a time — the same contract as wire.Conn.
type Secure struct {
	conn net.Conn
	priv box.PrivateKey

	isClient bool
	// serverPub is the expected peer key (client role).
	serverPub box.PublicKey
	// authorized lists the static keys allowed to connect (server role).
	authorized []box.PublicKey
	// anyPeer, in the server role, accepts every client static key
	// (server-only authentication — the entry leg).
	anyPeer bool

	hsMu   sync.Mutex
	hsDone bool
	hsErr  error
	peer   box.PublicKey
	key    [box.KeySize]byte

	rdMu  sync.Mutex
	rdCtr uint64
	// rdHdr is the reusable 4-byte record length prefix buffer (a local
	// array would escape through the io.ReadFull interface call).
	rdHdr [4]byte
	// rdRec is the reusable buffer one record is read into and opened
	// in; rdBuf aliases it, so it is only refilled once rdBuf is drained.
	rdRec []byte
	// rdBuf is the undelivered remainder of the last data record.
	rdBuf []byte
	rdErr error

	// wrMu serializes record writes; wrErr lives under the separate
	// wrStMu so a reader detecting a forgery can poison the write
	// direction without blocking behind an in-flight Write.
	wrMu  sync.Mutex
	wrCtr uint64
	// wrRec is the reusable record buffer: type byte + chunk are staged
	// behind the tag slot and sealed where they lie.
	wrRec []byte
	// wrHdr is the 4-byte record length prefix.
	wrHdr [4]byte
	// wrVecBase is the two-element backing store for the vectored
	// header+ciphertext write; wrVec is the consumable net.Buffers view
	// handed to WriteTo (which advances it). Both live on the struct so
	// the steady-state write path allocates nothing.
	wrVecBase net.Buffers
	wrVec     net.Buffers

	// wrStMu guards wrErr only and is never held across I/O.
	wrStMu sync.Mutex
	wrErr  error
}

// SecureClient wraps the dialing side of a connection: priv is this
// peer's long-term key and serverPub the key the remote listener must
// prove it holds (from the chain descriptor).
func SecureClient(conn net.Conn, priv box.PrivateKey, serverPub box.PublicKey) *Secure {
	return &Secure{conn: conn, priv: priv, isClient: true, serverPub: serverPub}
}

// SecureServer wraps the accepting side of a connection: priv is this
// peer's long-term key and authorized the static keys allowed to drive
// it. Any other peer fails the handshake with ErrAuth.
func SecureServer(conn net.Conn, priv box.PrivateKey, authorized []box.PublicKey) *Secure {
	return &Secure{conn: conn, priv: priv, authorized: authorized}
}

// SecureServerAny wraps the accepting side of a connection that
// authenticates the SERVER only: any client static key completes the
// handshake, the way a TLS server accepts anonymous clients. The channel
// is still encrypted and the records still authenticated under the
// session key — what is dropped is only the client-identity check. This
// is the entry-leg mode (docs/THREAT_MODEL.md): the chain's first server
// proves its long-term key to whoever dials (the untrusted entry server
// or a future direct client), but deliberately does not restrict who may
// submit batches, because the entry role is untrusted in the paper's
// threat model and gains nothing by holding a well-known key.
func SecureServerAny(conn net.Conn, priv box.PrivateKey) *Secure {
	return &Secure{conn: conn, priv: priv, anyPeer: true}
}

// Peer returns the authenticated remote static key; the zero key before
// the handshake completes.
func (s *Secure) Peer() box.PublicKey {
	s.hsMu.Lock()
	defer s.hsMu.Unlock()
	if !s.hsDone {
		return box.PublicKey{}
	}
	return s.peer
}

// Handshake runs the key exchange if it has not run yet. It is invoked
// implicitly by the first Read or Write; a failed handshake is sticky.
func (s *Secure) Handshake() error {
	s.hsMu.Lock()
	defer s.hsMu.Unlock()
	if s.hsDone || s.hsErr != nil {
		return s.hsErr
	}
	var err error
	if s.isClient {
		err = s.clientHandshake()
	} else {
		err = s.serverHandshake()
	}
	if err != nil {
		s.hsErr = err
		return err
	}
	s.wrVecBase = make(net.Buffers, 2)
	s.hsDone = true
	return nil
}

func authErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrAuth, fmt.Sprintf(format, args...))
}

func (s *Secure) clientHandshake() error {
	id := box.NewDHKey(&s.priv)
	pub := id.Public()
	eph, err := box.GenerateDHKey(nil)
	if err != nil {
		return err
	}
	ePub := eph.Public()
	ss, err := id.Precompute(&s.serverPub)
	if err != nil {
		return authErr("server key unusable: %v", err)
	}

	n1 := hsNonce("hs1", ePub[:])
	msg1 := make([]byte, 0, 1+2*box.KeySize+box.KeySize+box.Overhead)
	msg1 = append(msg1, secureVersion)
	msg1 = append(msg1, pub[:]...)
	msg1 = append(msg1, ePub[:]...)
	msg1 = append(msg1, box.Seal(ePub[:], &n1, ss)...)
	if err := s.writeFrame(msg1); err != nil {
		return err
	}

	msg2, err := s.readFrame()
	if err != nil {
		return err
	}
	if len(msg2) != box.KeySize+2*box.KeySize+box.Overhead {
		return authErr("handshake response is %d bytes", len(msg2))
	}
	var sEph box.PublicKey
	copy(sEph[:], msg2[:box.KeySize])
	n2 := hsNonce("hs2", ePub[:], sEph[:])
	plain, err := box.Open(msg2[box.KeySize:], &n2, ss)
	if err != nil {
		return authErr("server failed to prove its key")
	}
	if len(plain) != 2*box.KeySize ||
		subtle.ConstantTimeCompare(plain[:box.KeySize], sEph[:]) != 1 ||
		subtle.ConstantTimeCompare(plain[box.KeySize:], ePub[:]) != 1 {
		return authErr("handshake transcript mismatch")
	}

	ee, err := eph.Precompute(&sEph)
	if err != nil {
		return authErr("ephemeral exchange failed: %v", err)
	}
	s.key = sessionKey(ee, secureVersion, pub, s.serverPub, ePub[:], sEph[:])
	s.peer = s.serverPub
	return nil
}

func (s *Secure) serverHandshake() error {
	id := box.NewDHKey(&s.priv)
	pub := id.Public()
	msg1, err := s.readFrame()
	if err != nil {
		return err
	}
	if len(msg1) != 1+2*box.KeySize+box.KeySize+box.Overhead {
		return authErr("handshake hello is %d bytes", len(msg1))
	}
	if msg1[0] != secureVersion {
		return authErr("protocol version %d", msg1[0])
	}
	var clientPub, cEph box.PublicKey
	copy(clientPub[:], msg1[1:1+box.KeySize])
	copy(cEph[:], msg1[1+box.KeySize:1+2*box.KeySize])

	allowed := s.anyPeer
	for _, k := range s.authorized {
		if k == clientPub {
			allowed = true
			break
		}
	}
	if !allowed {
		return authErr("peer key not authorized")
	}
	if clientPub == (box.PublicKey{}) {
		// An all-zero static would make the msg1 proof vacuous (the
		// low-order X25519 point yields an all-zero shared secret any
		// observer can compute); no honest dialer sends it.
		return authErr("peer presented a zero key")
	}

	ss, err := id.Precompute(&clientPub)
	if err != nil {
		return authErr("peer key unusable: %v", err)
	}
	n1 := hsNonce("hs1", cEph[:])
	plain, err := box.Open(msg1[1+2*box.KeySize:], &n1, ss)
	if err != nil {
		return authErr("peer failed to prove its key")
	}
	if subtle.ConstantTimeCompare(plain, cEph[:]) != 1 {
		return authErr("handshake transcript mismatch")
	}

	eph, err := box.GenerateDHKey(nil)
	if err != nil {
		return err
	}
	sEph := eph.Public()
	n2 := hsNonce("hs2", cEph[:], sEph[:])
	echo := make([]byte, 0, 2*box.KeySize)
	echo = append(echo, sEph[:]...)
	echo = append(echo, cEph[:]...)
	msg2 := make([]byte, 0, box.KeySize+2*box.KeySize+box.Overhead)
	msg2 = append(msg2, sEph[:]...)
	msg2 = append(msg2, box.Seal(echo, &n2, ss)...)
	if err := s.writeFrame(msg2); err != nil {
		return err
	}

	ee, err := eph.Precompute(&cEph)
	if err != nil {
		return authErr("ephemeral exchange failed: %v", err)
	}
	s.key = sessionKey(ee, msg1[0], clientPub, pub, cEph[:], sEph[:])
	s.peer = clientPub
	return nil
}

// sessionKey derives the record key from the ephemeral-ephemeral shared
// secret and the full handshake transcript — both identities, both
// ephemerals, and the protocol version each side OBSERVED — so
// mixed-and-matched handshakes derive nothing useful and a rewritten
// version byte (downgrade attempt, once more than one version exists)
// makes the two sides derive different keys and fail on the first
// record instead of silently proceeding.
func sessionKey(ee *[box.KeySize]byte, version byte, clientStatic, serverStatic box.PublicKey, cEph, sEph []byte) [box.KeySize]byte {
	h := sha256.New()
	h.Write([]byte("vuvuzela-secure-v1 session"))
	h.Write([]byte{version})
	h.Write(ee[:])
	h.Write(clientStatic[:])
	h.Write(serverStatic[:])
	h.Write(cEph)
	h.Write(sEph)
	var key [box.KeySize]byte
	copy(key[:], h.Sum(nil))
	return key
}

func hsNonce(label string, parts ...[]byte) [box.NonceSize]byte {
	h := sha256.New()
	h.Write([]byte("vuvuzela-secure-v1 " + label))
	for _, p := range parts {
		h.Write(p)
	}
	var n [box.NonceSize]byte
	copy(n[:], h.Sum(nil))
	return n
}

// recordNonce is the implicit per-record nonce: one byte of
// direction and a strictly increasing counter. The counter never crosses
// the wire, so a replayed or reordered record decrypts under the wrong
// nonce and fails authentication.
func recordNonce(dir byte, ctr uint64) (n [box.NonceSize]byte) {
	n[0] = dir
	binary.BigEndian.PutUint64(n[1:9], ctr)
	return n
}

func (s *Secure) dirOut() byte {
	if s.isClient {
		return dirClientToServer
	}
	return dirServerToClient
}

func (s *Secure) dirIn() byte {
	if s.isClient {
		return dirServerToClient
	}
	return dirClientToServer
}

// writeFrame sends one length-prefixed handshake frame.
func (s *Secure) writeFrame(payload []byte) error {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := s.conn.Write(buf)
	return err
}

// readFrame reads one length-prefixed handshake frame. I/O errors pass
// through; an absurd length is an authentication failure (the peer is
// not speaking this protocol).
func (s *Secure) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(s.conn, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxHandshakeFrame {
		return nil, authErr("handshake frame of %d bytes", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(s.conn, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// Read implements net.Conn: it delivers the next decrypted record bytes.
// A record failing authentication poisons the connection in BOTH
// directions — once ErrAuth is returned, every later Read and Write
// returns it too (docs/WIRE.md §1.4). The steady-state path reuses the
// connection's record buffers and allocates nothing.
func (s *Secure) Read(p []byte) (int, error) {
	if len(p) == 0 {
		// Per the io.Reader contract a zero-length read returns (0, nil)
		// without blocking; returning early also keeps a spinning caller
		// from pulling records it cannot accept bytes from.
		return 0, nil
	}
	if err := s.Handshake(); err != nil {
		return 0, err
	}
	s.rdMu.Lock()
	defer s.rdMu.Unlock()
	for {
		if s.rdErr != nil {
			return 0, s.rdErr
		}
		if len(s.rdBuf) > 0 {
			n := copy(p, s.rdBuf)
			s.rdBuf = s.rdBuf[n:]
			return n, nil
		}
		if k, err := io.ReadFull(s.conn, s.rdHdr[:]); err != nil {
			// A clean close at a record boundary is a normal EOF, and
			// deadlines / injected faults pass through unchanged — but
			// once framing bytes have been consumed the stream can
			// never resynchronize, so later reads must not misparse
			// mid-record ciphertext (and misreport a hiccup as an
			// attack). The sticky desync error is NOT ErrAuth.
			if k > 0 {
				s.rdErr = fmt.Errorf("transport: record stream desynchronized: %w", err)
			}
			return 0, err
		}
		n := binary.BigEndian.Uint32(s.rdHdr[:])
		if n < box.Overhead+1 || n > box.Overhead+1+maxRecordPlain {
			s.fail(authErr("record of %d bytes", n))
			return 0, s.rdErr
		}
		if cap(s.rdRec) < int(n) {
			s.rdRec = make([]byte, n)
		}
		ct := s.rdRec[:n]
		if _, err := io.ReadFull(s.conn, ct); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			s.rdErr = fmt.Errorf("transport: record stream desynchronized: %w", err)
			return 0, err
		}
		// Opened where it was read: OpenInto writes nothing before the
		// tag verifies, so rdRec never holds forged plaintext.
		pt := ct[box.Overhead:]
		nonce := recordNonce(s.dirIn(), s.rdCtr)
		if err := box.OpenInto(pt, ct, &nonce, &s.key); err != nil {
			s.fail(authErr("record %d rejected (tampered, replayed, or reordered)", s.rdCtr))
			return 0, s.rdErr
		}
		s.rdCtr++
		switch pt[0] {
		case recData:
			s.rdBuf = pt[1:]
		case recAlert:
			// The peer authenticated this alert, so it genuinely saw our
			// traffic fail verification: someone tampered with the other
			// direction. No alert back — the peer already knows — but
			// the write direction is poisoned too: the peer will never
			// accept another record of ours, and sending application
			// data into a connection under active attack helps only the
			// attacker.
			s.rdErr = authErr("peer reported authentication failure on our traffic")
			s.poisonWrite()
			return 0, s.rdErr
		default:
			s.fail(authErr("unknown record type %d", pt[0]))
			return 0, s.rdErr
		}
	}
}

// errWriteAuthPoisoned is the sticky ErrAuth-classed error Write returns
// after a receive-side authentication failure: no data record is ever
// sealed on a connection known to be under active attack, and the caller
// sees an authentication failure, not a misleading I/O error from a
// connection the alert path already gave up on.
var errWriteAuthPoisoned = fmt.Errorf("%w: write refused after authentication failure on this connection", ErrAuth)

// poisonWrite marks the write direction permanently dead with an
// ErrAuth-classed error, unless it already failed for another reason.
// It reports whether this call did the poisoning, and never blocks: it
// only takes wrStMu, so a Read that detected a forgery poisons writes
// even while a concurrent Write holds wrMu.
func (s *Secure) poisonWrite() bool {
	s.wrStMu.Lock()
	defer s.wrStMu.Unlock()
	if s.wrErr != nil {
		return false
	}
	s.wrErr = errWriteAuthPoisoned
	return true
}

// fail records a sticky receive-side authentication failure, poisons the
// write direction (no data record may follow a detected forgery), and
// tells the peer via an authenticated alert on the still-trustworthy
// send direction, so the peer can distinguish an active attack from a
// crash. The alert is best-effort twice over: the write is bounded by a
// short deadline (clobbering any caller write deadline — the connection
// is dead anyway, and later Writes fail on the sticky error before
// touching it), and if a concurrent writer holds the direction the alert
// is skipped rather than blocking the Read that detected the forgery
// behind a possibly-wedged Write.
func (s *Secure) fail(err error) {
	s.rdErr = err
	if !s.poisonWrite() {
		// The write direction was already dead; no alert can be sent.
		return
	}
	if !s.wrMu.TryLock() {
		return
	}
	defer s.wrMu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(alertTimeout))
	s.sealAndSend(recAlert, nil)
}

// writeRecord seals chunk as one data record, refusing on a poisoned
// direction. Caller holds wrMu.
func (s *Secure) writeRecord(chunk []byte) error {
	s.wrStMu.Lock()
	err := s.wrErr
	s.wrStMu.Unlock()
	if err != nil {
		return err
	}
	return s.sealAndSend(recData, chunk)
}

// sealAndSend stages typ ‖ chunk behind the tag slot of the reusable
// record buffer, seals it where it lies under the next write-direction
// nonce, and sends the 4-byte header + record as one vectored write
// (net.Buffers hits writev on TCP, so coalescing costs no copy). Caller
// holds wrMu. A failed write poisons the whole direction: the record for
// nonce wrCtr may be partially on the wire, and sealing different
// plaintext under the same (key, nonce) — e.g. a retry after a write
// deadline — would reuse the keystream and authenticator key. The
// connection must be dropped instead.
func (s *Secure) sealAndSend(typ byte, chunk []byte) error {
	n := box.Overhead + 1 + len(chunk)
	if cap(s.wrRec) < n {
		// Write sends its largest chunk first, so this grows at most once
		// per call and never past one full record.
		s.wrRec = make([]byte, n)
	}
	rec := s.wrRec[:n]
	rec[box.Overhead] = typ
	copy(rec[box.Overhead+1:], chunk)
	nonce := recordNonce(s.dirOut(), s.wrCtr)
	box.SealInto(rec, rec[box.Overhead:], &nonce, &s.key)
	binary.BigEndian.PutUint32(s.wrHdr[:], uint32(n))
	s.wrVecBase[0] = s.wrHdr[:]
	s.wrVecBase[1] = rec
	// WriteTo consumes its receiver, so hand it a throwaway view and
	// keep the base intact for the next record.
	s.wrVec = s.wrVecBase
	if _, err := s.wrVec.WriteTo(s.conn); err != nil {
		s.wrStMu.Lock()
		if s.wrErr == nil {
			s.wrErr = fmt.Errorf("transport: write direction poisoned after failed record: %w", err)
		}
		s.wrStMu.Unlock()
		return err
	}
	s.wrCtr++
	return nil
}

// Write implements net.Conn: p is split into encrypted data records of
// at most recordPlain bytes. The steady-state path reuses the
// connection's record buffer and allocates nothing.
func (s *Secure) Write(p []byte) (int, error) {
	if err := s.Handshake(); err != nil {
		return 0, err
	}
	s.wrMu.Lock()
	defer s.wrMu.Unlock()
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > recordPlain {
			chunk = chunk[:recordPlain]
		}
		if err := s.writeRecord(chunk); err != nil {
			return total, err
		}
		total += len(chunk)
		p = p[len(chunk):]
	}
	return total, nil
}

// Close closes the underlying connection.
func (s *Secure) Close() error { return s.conn.Close() }

// LocalAddr implements net.Conn.
func (s *Secure) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// RemoteAddr implements net.Conn.
func (s *Secure) RemoteAddr() net.Addr { return s.conn.RemoteAddr() }

// SetDeadline implements net.Conn.
func (s *Secure) SetDeadline(t time.Time) error { return s.conn.SetDeadline(t) }

// SetReadDeadline implements net.Conn.
func (s *Secure) SetReadDeadline(t time.Time) error { return s.conn.SetReadDeadline(t) }

// SetWriteDeadline implements net.Conn.
func (s *Secure) SetWriteDeadline(t time.Time) error { return s.conn.SetWriteDeadline(t) }

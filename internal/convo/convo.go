// Package convo implements Vuvuzela's conversation protocol (paper §4,
// Algorithms 1 and 2): the client-side round logic, the fixed-size
// exchange-request wire format, the last-server dead-drop exchange
// service, and the cover-traffic generator run by mixing servers.
package convo

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deaddrop"
	"vuvuzela/internal/noise"
)

const (
	// PayloadSize is the padded plaintext message size: 240 bytes of
	// user-visible message per round (§8.1: "text messages (up to 240
	// bytes each)").
	PayloadSize = 240
	// SealedSize is the sealed message size: 256 bytes including the
	// 16-byte encryption overhead (§8.1).
	SealedSize = PayloadSize + box.Overhead
	// RequestSize is the innermost exchange-request size seen by the last
	// server: a 128-bit dead-drop ID plus the sealed message.
	RequestSize = deaddrop.IDSize + SealedSize
	// lenPrefix is the message length header inside the padded payload.
	lenPrefix = 2
	// MaxMessageLen is the largest message a single round can carry.
	MaxMessageLen = PayloadSize - lenPrefix
)

var (
	// ErrMessageTooLong indicates the plaintext exceeds MaxMessageLen.
	ErrMessageTooLong = errors.New("convo: message too long")
	// ErrBadPadding indicates a padded payload with an invalid length
	// header.
	ErrBadPadding = errors.New("convo: bad padding")
	// ErrBadRequest indicates a malformed exchange request.
	ErrBadRequest = errors.New("convo: malformed exchange request")
)

// DeriveSecret computes the long-lived conversation secret between two
// users from a Diffie-Hellman agreement over their keys (Algorithm 1 step
// 1a: s_{n+1} = DH(sk_alice, pk_bob)). Both directions derive the same
// secret.
func DeriveSecret(myPriv *box.PrivateKey, peerPub *box.PublicKey) (*[32]byte, error) {
	return box.Precompute(peerPub, myPriv)
}

// DeadDropID derives the round's dead drop from the shared secret:
// b = H(s, r) (Algorithm 1 step 1a). A fresh pseudo-random drop per round
// prevents correlation across rounds (§4.1).
func DeadDropID(secret *[32]byte, round uint64) deaddrop.ID {
	h := sha256.New()
	h.Write([]byte("vuvuzela-convo-deaddrop"))
	h.Write(secret[:])
	var r [8]byte
	binary.BigEndian.PutUint64(r[:], round)
	h.Write(r[:])
	var id deaddrop.ID
	copy(id[:], h.Sum(nil))
	return id
}

// PadMessage embeds msg into a fixed-size payload with a length header
// (§3.2: message sizes must be independent of user activity). A nil or
// empty msg produces the "empty message" payload of Algorithm 1.
func PadMessage(msg []byte) ([PayloadSize]byte, error) {
	var p [PayloadSize]byte
	if len(msg) > MaxMessageLen {
		return p, ErrMessageTooLong
	}
	binary.BigEndian.PutUint16(p[:lenPrefix], uint16(len(msg)))
	copy(p[lenPrefix:], msg)
	return p, nil
}

// UnpadMessage recovers the message from a padded payload. An empty
// message yields a nil slice.
func UnpadMessage(p [PayloadSize]byte) ([]byte, error) {
	n := binary.BigEndian.Uint16(p[:lenPrefix])
	if int(n) > MaxMessageLen {
		return nil, ErrBadPadding
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]byte, n)
	copy(out, p[lenPrefix:lenPrefix+int(n)])
	return out, nil
}

// messageNonce derives the nonce for the innermost message encryption.
// Both ends of a conversation share one secret, so the nonce must differ
// by direction to avoid reuse: it binds the round number and the sender's
// public key.
func messageNonce(round uint64, sender *box.PublicKey) [box.NonceSize]byte {
	const tag = "vuvuzela-convo-msg"
	var in [len(tag) + 8 + box.KeySize]byte
	copy(in[:], tag)
	binary.BigEndian.PutUint64(in[len(tag):], round)
	copy(in[len(tag)+8:], sender[:])
	sum := sha256.Sum256(in[:])
	var nonce [box.NonceSize]byte
	copy(nonce[:], sum[:])
	return nonce
}

// SealMessage encrypts a padded payload under the conversation secret for
// the given round, as the given sender (Algorithm 1 step 1a: "Pad and
// encrypt Alice's message m using nonce r and secret key s_{n+1}").
func SealMessage(secret *[32]byte, round uint64, sender *box.PublicKey, payload *[PayloadSize]byte) [SealedSize]byte {
	nonce := messageNonce(round, sender)
	var out [SealedSize]byte
	box.SealInto(out[:], payload[:], &nonce, secret)
	return out
}

// OpenMessage decrypts a sealed message produced by the peer in the given
// round, straight into the returned array. sender is the peer's public
// key. It returns box.ErrDecrypt if the ciphertext is not from the peer —
// which is also how a client recognizes the zero payload returned for an
// unmatched drop — and ErrBadRequest if it is not SealedSize long.
func OpenMessage(secret *[32]byte, round uint64, sender *box.PublicKey, sealed []byte) ([PayloadSize]byte, error) {
	var payload [PayloadSize]byte
	if len(sealed) != SealedSize {
		return payload, ErrBadRequest
	}
	nonce := messageNonce(round, sender)
	err := box.OpenInto(payload[:], sealed, &nonce, secret)
	return payload, err
}

// Request is the innermost exchange request processed by the last server:
// deposit Sealed into drop DeadDrop and return the other payload deposited
// there this round.
type Request struct {
	DeadDrop deaddrop.ID      // b = H(s, r), the round's dead drop
	Sealed   [SealedSize]byte // the padded message sealed for the peer
}

// Marshal encodes the request into its fixed 272-byte wire form.
func (r *Request) Marshal() []byte {
	out := make([]byte, RequestSize)
	copy(out[:deaddrop.IDSize], r.DeadDrop[:])
	copy(out[deaddrop.IDSize:], r.Sealed[:])
	return out
}

// BuildRequest assembles Alice's exchange request for a round (Algorithm 1
// steps 1a/1b). If secret is non-nil the request targets the conversation
// dead drop and carries msg (possibly empty) sealed as senderPub; if
// secret is nil it builds an indistinguishable fake request: a random
// secret, hence a random drop and an undecryptable payload.
func BuildRequest(secret *[32]byte, round uint64, senderPub *box.PublicKey, msg []byte) (*Request, error) {
	if secret == nil {
		// Algorithm 1 step 1b: fake request from a random key. Drawing
		// the secret directly from the CSPRNG is equivalent to deriving
		// it from a random public key and saves a scalar multiplication.
		var s [32]byte
		if _, err := rand.Read(s[:]); err != nil {
			return nil, err
		}
		var pub box.PublicKey
		if _, err := rand.Read(pub[:]); err != nil {
			return nil, err
		}
		payload, _ := PadMessage(nil)
		sealed := SealMessage(&s, round, &pub, &payload)
		return &Request{DeadDrop: DeadDropID(&s, round), Sealed: sealed}, nil
	}
	payload, err := PadMessage(msg)
	if err != nil {
		return nil, err
	}
	return &Request{
		DeadDrop: DeadDropID(secret, round),
		Sealed:   SealMessage(secret, round, senderPub, &payload),
	}, nil
}

// OpenReply interprets the exchange reply for an active conversation: the
// partner's sealed message, or zeros/noise if the partner was absent.
// It returns (msg, true) when the partner sent a non-empty message,
// (nil, true) when the partner was present but idle, and (nil, false)
// when no authentic partner payload arrived this round.
func OpenReply(secret *[32]byte, round uint64, peerPub *box.PublicKey, reply []byte) ([]byte, bool) {
	payload, err := OpenMessage(secret, round, peerPub, reply)
	if err != nil {
		return nil, false
	}
	msg, err := UnpadMessage(payload)
	if err != nil {
		return nil, false
	}
	return msg, true
}

// Service is the last server's conversation round processor (Algorithm 2
// step 3b): it matches exchange requests through a dead-drop table.
type Service struct{}

// Process performs the dead-drop exchange for one round. Each element of
// requests is an innermost request (RequestSize bytes); malformed requests
// receive a zero reply of SealedSize. Replies align with requests.
func (s Service) Process(round uint64, requests [][]byte) [][]byte {
	// slot[i] is request i's index among the well-formed requests, or -1
	// if malformed.
	slot := make([]int, len(requests))

	// Single pass: insert straight into the table while scanning, no
	// intermediate staging.
	tab := deaddrop.NewTable(len(requests))
	for i, b := range requests {
		if len(b) != RequestSize {
			slot[i] = -1
			continue
		}
		var id deaddrop.ID
		copy(id[:], b[:deaddrop.IDSize])
		slot[i] = tab.Add(id, b[deaddrop.IDSize:])
	}
	exchanged := tab.Exchange()

	replies := make([][]byte, len(requests))
	for i := range requests {
		if slot[i] < 0 {
			replies[i] = make([]byte, SealedSize)
			continue
		}
		replies[i] = exchanged[slot[i]]
	}
	return replies
}

// Histogram exposes the observable variables (m1, m2) of a batch of
// innermost requests — used by the traffic-analysis experiments, not by
// the protocol itself.
func Histogram(requests [][]byte) (m1, m2, more int) {
	tab := deaddrop.NewTable(len(requests))
	for _, b := range requests {
		if len(b) != RequestSize {
			continue
		}
		var id deaddrop.ID
		copy(id[:], b[:deaddrop.IDSize])
		tab.Add(id, nil)
	}
	return tab.Histogram()
}

// NoiseGen generates a mixing server's conversation cover traffic
// (Algorithm 2 step 2): n1 ~ Laplace(µ,b) single accesses and ⌈n2/2⌉
// pairs, each an innermost request targeting a random dead drop with a
// random sealed payload — indistinguishable from real requests.
type NoiseGen struct {
	// Dist is the per-draw noise distribution (Laplace in production,
	// Fixed in the paper's evaluation mode).
	Dist noise.Distribution
	// Src is the randomness source for the Laplace draws; nil means
	// crypto/rand.
	Src noise.Source
	// Rand supplies the random drop IDs and payloads; nil means
	// crypto/rand.
	Rand io.Reader
}

// Generate returns the round's noise requests, singles + 2·⌈n2/2⌉ paired
// ones in that order, as views into one buffer: Draw, then Fill.
func (g NoiseGen) Generate() [][]byte {
	singles, pairs := g.Draw()
	out := make([][]byte, singles+2*pairs)
	buf := make([]byte, len(out)*RequestSize)
	for i := range out {
		out[i] = buf[i*RequestSize : (i+1)*RequestSize : (i+1)*RequestSize]
	}
	g.Fill(out, singles)
	return out
}

// Draw samples the round's noise counts: n1 single accesses and ⌈n2/2⌉
// pairs, singles + 2·pairs requests in all.
func (g NoiseGen) Draw() (singles, pairs int) {
	n1 := g.Dist.Sample(g.Src)
	n2 := g.Dist.Sample(g.Src)
	return n1, (n2 + 1) / 2
}

// Fill writes the noise requests of one Draw into dst, whose
// singles + 2·pairs elements are RequestSize bytes each — for a mixing
// server, the tails of the onions it is about to seal: the first
// `singles` each target a random drop, the rest pair up on one.
func (g NoiseGen) Fill(dst [][]byte, singles int) {
	rng := g.Rand
	if rng == nil {
		rng = rand.Reader
	}
	for _, b := range dst[:singles] {
		mustRead(rng, b)
	}
	for pair := dst[singles:]; len(pair) >= 2; pair = pair[2:] {
		mustRead(rng, pair[0])
		copy(pair[1], pair[0][:deaddrop.IDSize])
		mustRead(rng, pair[1][deaddrop.IDSize:])
	}
}

func mustRead(rng io.Reader, b []byte) {
	if _, err := io.ReadFull(rng, b); err != nil {
		// Running without entropy would silently void the privacy
		// guarantee; refuse.
		panic("convo: randomness source failed: " + err.Error())
	}
}

// Package onion implements the layered encryption that carries Vuvuzela
// requests through the server chain (paper §4.1, Algorithm 1 step 2 and
// Algorithm 2 steps 1 and 4).
//
// A request for a chain of n servers is encrypted in reverse order, server
// n first. Each layer i consists of a fresh ephemeral public key followed
// by a NaCl box sealed under the Diffie-Hellman shared secret between that
// ephemeral key and server i's long-term key:
//
//	e_i = pk_i || Box(s_i, e_{i+1}),   s_i = DH(sk_i, pk_server_i)
//
// Each server unwraps one layer on the way in, caches s_i, and seals the
// reply under s_i on the way back, so replies unwrap like an onion in the
// opposite direction. Nonces are derived deterministically from (round,
// layer, direction); this is safe because every onion uses fresh ephemeral
// keys, so no (key, nonce) pair ever repeats.
package onion

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"

	"vuvuzela/internal/crypto/box"
)

// LayerOverhead is the number of bytes each onion layer adds: a 32-byte
// ephemeral public key plus the box authenticator.
const LayerOverhead = box.KeySize + box.Overhead

// ReplyOverhead is the number of bytes each reply layer adds (box
// authenticator only; no key is needed on the way back).
const ReplyOverhead = box.Overhead

var (
	// ErrTooShort indicates an onion shorter than one layer.
	ErrTooShort = errors.New("onion: ciphertext too short")
	// ErrDecrypt indicates layer authentication failed.
	ErrDecrypt = errors.New("onion: authentication failed")
)

// Size returns the wire size of an onion carrying a payload of the given
// length through `layers` servers.
func Size(payloadLen, layers int) int {
	return payloadLen + layers*LayerOverhead
}

// ReplySize returns the wire size of a reply carrying a payload of the
// given length back through `layers` servers.
func ReplySize(payloadLen, layers int) int {
	return payloadLen + layers*ReplyOverhead
}

// requestNonce derives the nonce for request layer `layer` of round
// `round`. Layers are numbered by absolute chain position starting at 0.
func requestNonce(round uint64, layer int) [box.NonceSize]byte {
	return deriveNonce('q', round, layer)
}

// replyNonce derives the nonce for reply layer `layer` of round `round`.
func replyNonce(round uint64, layer int) [box.NonceSize]byte {
	return deriveNonce('p', round, layer)
}

func deriveNonce(dir byte, round uint64, layer int) [box.NonceSize]byte {
	var buf [10]byte
	buf[0] = dir
	binary.BigEndian.PutUint64(buf[1:9], round)
	buf[9] = byte(layer)
	sum := sha256.Sum256(buf[:])
	var nonce [box.NonceSize]byte
	copy(nonce[:], sum[:])
	return nonce
}

// Wrap onion-encrypts payload for the servers whose public keys are given
// in chain order. startLayer is the absolute chain position of the first
// key in pubs: clients pass 0 with the full chain; a mixing server at
// position i generating noise passes i+1 with the tail of the chain
// (Algorithm 2 step 2 — noise must be indistinguishable from real requests
// to all downstream servers).
//
// It returns the wire onion and the per-layer shared keys, ordered to
// match pubs, which the caller needs to unwrap the layered reply.
func Wrap(payload []byte, round uint64, startLayer int, pubs []box.PublicKey, rng io.Reader) ([]byte, []*[box.KeySize]byte, error) {
	keys := make([]*[box.KeySize]byte, len(pubs))
	onion := payload
	for i := len(pubs) - 1; i >= 0; i-- {
		eph, err := box.GenerateDHKey(rng)
		if err != nil {
			return nil, nil, err
		}
		shared, err := eph.Precompute(&pubs[i])
		if err != nil {
			return nil, nil, err
		}
		keys[i] = shared

		nonce := requestNonce(round, startLayer+i)
		buf := make([]byte, box.KeySize+box.Overhead+len(onion))
		epub := eph.Public()
		copy(buf[:box.KeySize], epub[:])
		box.SealInto(buf[box.KeySize:], onion, &nonce, shared)
		onion = buf
	}
	return onion, keys, nil
}

// Unwrap removes one onion layer as server `layer` (absolute chain
// position) in round `round`, with the server's parsed key. It returns the
// inner onion (or innermost payload for the last server) and the shared
// key to seal the reply with.
func Unwrap(onion []byte, key *box.DHKey, round uint64, layer int) ([]byte, *[box.KeySize]byte, error) {
	if len(onion) < LayerOverhead {
		return nil, nil, ErrTooShort
	}
	var epub box.PublicKey
	copy(epub[:], onion[:box.KeySize])
	shared, err := key.Precompute(&epub)
	if err != nil {
		return nil, nil, ErrDecrypt
	}
	nonce := requestNonce(round, layer)
	inner, err := box.Open(onion[box.KeySize:], &nonce, shared)
	if err != nil {
		return nil, nil, ErrDecrypt
	}
	return inner, shared, nil
}

// UnwrapLayer is Unwrap for a raw private key, parsed on every call; a
// server unwrapping a batch parses its key once and calls Unwrap.
func UnwrapLayer(onion []byte, priv *box.PrivateKey, round uint64, layer int) ([]byte, *[box.KeySize]byte, error) {
	key, err := box.NewDHKey(priv)
	if err != nil {
		return nil, nil, ErrDecrypt
	}
	return Unwrap(onion, key, round, layer)
}

// SealReply encrypts a reply payload as server `layer` using the shared
// key cached from Unwrap (Algorithm 2 step 4).
func SealReply(reply []byte, key *[box.KeySize]byte, round uint64, layer int) []byte {
	nonce := replyNonce(round, layer)
	return box.Seal(reply, &nonce, key)
}

// OpenReply removes one reply layer with the shared key for `layer`,
// as recorded by Wrap (Algorithm 1 step 3).
func OpenReply(ct []byte, key *[box.KeySize]byte, round uint64, layer int) ([]byte, error) {
	nonce := replyNonce(round, layer)
	pt, err := box.Open(ct, &nonce, key)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// UnwrapReply removes all reply layers in chain order using the shared
// keys returned by Wrap, yielding the innermost reply payload.
func UnwrapReply(ct []byte, round uint64, startLayer int, keys []*[box.KeySize]byte) ([]byte, error) {
	var err error
	for i := 0; i < len(keys); i++ {
		ct, err = OpenReply(ct, keys[i], round, startLayer+i)
		if err != nil {
			return nil, err
		}
	}
	return ct, nil
}

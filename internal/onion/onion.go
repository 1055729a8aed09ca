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
//
// Building an onion is two steps: NewPath draws the ephemeral keys and
// runs the Diffie-Hellman (nearly all of the cost, and independent of
// round and payload), Path.Seal encrypts a payload under it. NewPath takes
// the servers as box.Peers, parsed once, so both scalar mults of every
// layer run on fixed-base tables, all in one batch (box.Agree). A client
// calls it for each round's onions; a mixing server agrees its cover
// traffic's paths ahead of the round (mixnet) with NewPaths, in chunks
// that fill the comb's lanes. Wrap is the same two steps for raw public
// keys and a one-shot caller: it agrees each layer on the ladder, where a
// table would cost more than it saves, and seals with the same Path.Seal.
//
// Each direction is written once, in place: UnwrapBatchInPlace decrypts a
// chunk of onions where they lie (writing nothing into one that does not
// authenticate), their key agreements batched under one field inversion;
// Path.SealInPlace and SealReplyInto encrypt into memory the caller owns,
// so a server's round allocates nothing per onion. UnwrapInPlace is a
// chunk of one, and Unwrap, UnwrapLayer, Seal, SealReply and UnwrapReply
// are the same functions on a copy, for callers that keep their input.
package onion

import (
	"bytes"
	"crypto/rand"
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

// Path is the key agreement for one onion, done ahead of the payload: a
// fresh ephemeral key per layer and the shared key each one agrees with
// its server. It is nearly all of an onion's cost and depends only on the
// servers' public keys — not on the round, the layer numbering or the
// payload — so a mixing server agrees its noise onions' paths before the
// round that uses them. A Path holds secret key material, and is
// single-use: Seal it once, because two onions under the same ephemeral
// keys are linkable on the wire and repeat a (key, nonce) pair within a
// round.
type Path struct {
	// hops holds one agreement per layer, in chain order.
	hops []box.Agreement
}

// NewPath agrees keys with the servers whose parsed public keys are given
// in chain order (box.Agree: every layer's two scalar mults run on
// fixed-base tables, in one batch). It draws one box.KeySize-byte
// ephemeral key per layer from rng (crypto/rand if nil), innermost layer
// first — the stream Wrap draws — and allocates the path and nothing else.
func NewPath(peers []*box.Peer, rng io.Reader) (Path, error) {
	if rng == nil {
		rng = rand.Reader
	}
	hops := make([]box.Agreement, len(peers))
	for i := len(hops) - 1; i >= 0; i-- {
		if _, err := io.ReadFull(rng, hops[i].Key[:]); err != nil {
			return Path{}, err
		}
	}
	if err := box.Agree(hops, peers); err != nil {
		return Path{}, err
	}
	return Path{hops: hops}, nil
}

// PathChunk is how many paths NewPaths agrees in one box.Agree: 8, so
// that each table's products fill the comb's 8 lanes.
const PathChunk = 8

// NewPaths sets every paths[i] to a fresh path to peers, as len(paths)
// NewPath calls on crypto/rand would, but in chunks of PathChunk: all the
// paths' agreements are one slab, and each chunk draws its keys in one
// read (for paths of up to 8 layers) and agrees them in one box.Agree.
// Paths of one slab keep each other's keys reachable: a holder that must
// not keep a spent path's keys Wipes it.
func NewPaths(paths []Path, peers []*box.Peer) error {
	layers := len(peers)
	slab := make([]box.Agreement, len(paths)*layers)
	for first := 0; first < len(paths); first += PathChunk {
		last := min(first+PathChunk, len(paths))
		if err := agreeChunk(paths[first:last], slab[first*layers:last*layers], peers); err != nil {
			return err
		}
	}
	return nil
}

// agreeChunk sets paths to fresh paths to peers, their agreements in hops.
func agreeChunk(paths []Path, hops []box.Agreement, peers []*box.Peer) error {
	layers := len(peers)
	// Each path's keys innermost layer first, as NewPath reads them.
	var keys [PathChunk * 8 * box.KeySize]byte
	for done := 0; done < len(hops); {
		n := min(len(hops)-done, len(keys)/box.KeySize)
		if _, err := rand.Read(keys[:n*box.KeySize]); err != nil {
			return err
		}
		for i := done; i < done+n; i++ {
			path, layer := i/layers, layers-1-i%layers
			copy(hops[path*layers+layer].Key[:], keys[(i-done)*box.KeySize:])
		}
		done += n
	}
	clear(keys[:])
	if err := box.Agree(hops, peers); err != nil {
		return err
	}
	for p := range paths {
		paths[p] = Path{hops: hops[p*layers : (p+1)*layers]}
	}
	return nil
}

// Wipe zeroes the path's keys, once it is sealed and its reply will not
// be read.
func (p Path) Wipe() { clear(p.hops) }

// Keys returns the path's per-layer shared keys in chain order, which the
// sender needs to unwrap the layered reply (UnwrapReply). They alias the
// path.
func (p Path) Keys() []*[box.KeySize]byte {
	keys := make([]*[box.KeySize]byte, len(p.hops))
	for i := range p.hops {
		keys[i] = &p.hops[i].Key
	}
	return keys
}

// Seal onion-encrypts payload along the path for round `round`, the
// path's first server sitting at absolute chain position startLayer (see
// Wrap). It is the cheap half of Wrap: one buffer of the final onion size
// with the payload copied to its tail, handed to SealInPlace.
func (p Path) Seal(payload []byte, round uint64, startLayer int) []byte {
	out := make([]byte, Size(len(payload), len(p.hops)))
	copy(out[len(p.hops)*LayerOverhead:], payload)
	p.SealInPlace(out, round, startLayer)
	return out
}

// SealInPlace is Seal over a buffer the caller owns: onion is the final
// onion's size and already holds the payload in its tail, after
// len(pubs)·LayerOverhead bytes that are overwritten; each layer is sealed
// where it lies, from the innermost outward. A mixing server seals a
// round's cover traffic this way into one slab. Like Seal it must be
// called at most once per Path.
func (p Path) SealInPlace(onion []byte, round uint64, startLayer int) {
	for i := len(p.hops) - 1; i >= 0; i-- {
		layer := onion[i*LayerOverhead:]
		copy(layer[:box.KeySize], p.hops[i].Public[:])
		nonce := requestNonce(round, startLayer+i)
		box.SealInto(layer[box.KeySize:], layer[LayerOverhead:], &nonce, &p.hops[i].Key)
	}
}

// Wrap onion-encrypts payload for the servers whose public keys are given
// in chain order. startLayer is the absolute chain position of the first
// key in pubs: clients pass 0 with the full chain; a mixing server at
// position i generating noise seals under position i+1 with the tail of
// the chain (Algorithm 2 step 2 — noise must be indistinguishable from
// real requests to all downstream servers).
//
// It returns the wire onion and the per-layer shared keys, ordered to
// match pubs, which the caller needs to unwrap the layered reply. It is
// the one-shot form of NewPath followed by Seal, for raw keys: a table
// per key would cost more than it saves once, so each layer generates an
// ephemeral box.DHKey and agrees on the ladder. From the same stream its
// bytes are NewPath's (TestPathSealMatchesWrap).
func Wrap(payload []byte, round uint64, startLayer int, pubs []box.PublicKey, rng io.Reader) ([]byte, []*[box.KeySize]byte, error) {
	path := Path{hops: make([]box.Agreement, len(pubs))}
	for i := len(pubs) - 1; i >= 0; i-- {
		eph, err := box.GenerateDHKey(rng)
		if err != nil {
			return nil, nil, err
		}
		if err := eph.PrecomputeInto(&path.hops[i].Key, &pubs[i]); err != nil {
			return nil, nil, err
		}
		path.hops[i].Public = eph.Public()
	}
	return path.Seal(payload, round, startLayer), path.Keys(), nil
}

// UnwrapInPlace removes one onion layer as server `layer` (absolute chain
// position) in round `round`, with the server's parsed key, using the
// onion's own bytes as working memory: the inner onion (or innermost
// payload for the last server) is decrypted where it lies and returned as
// onion[LayerOverhead:], and the key to seal the reply with is written to
// shared. Nothing is written into onion unless the layer authenticates —
// a failed attempt leaves it bit for bit as it was; shared is then
// meaningless. It is UnwrapBatchInPlace on a chunk of one.
func UnwrapInPlace(onion []byte, key *box.DHKey, shared *[box.KeySize]byte, round uint64, layer int) ([]byte, error) {
	if len(onion) < LayerOverhead {
		return nil, ErrTooShort
	}
	chunk, keys := [][]byte{onion}, [][box.KeySize]byte{{}}
	UnwrapBatchInPlace(chunk, key, keys, round, layer)
	if chunk[0] == nil {
		return nil, ErrDecrypt
	}
	*shared = keys[0]
	return chunk[0], nil
}

// UnwrapBatchInPlace is UnwrapInPlace for every onion of a chunk: onions[i]
// is replaced by its inner onion, or by nil where it is refused (too short,
// a low-order ephemeral key, or a layer that does not authenticate), and
// shared[i] gets its reply key. The ephemeral keys are read where they lie
// and agreed box.MaxBatch at a time under one field inversion
// (box.DHKey.PrecomputeBatch); a refused onion changes no other onion's
// key.
func UnwrapBatchInPlace(onions [][]byte, key *box.DHKey, shared [][box.KeySize]byte, round uint64, layer int) {
	nonce := requestNonce(round, layer)
	// A too-short onion is agreed on the zero key, which is refused.
	var zero box.PublicKey
	for len(onions) > 0 {
		n := min(len(onions), box.MaxBatch)
		var epubs [box.MaxBatch]*box.PublicKey
		var errs [box.MaxBatch]error
		for i, o := range onions[:n] {
			epubs[i] = &zero
			if len(o) >= LayerOverhead {
				epubs[i] = (*box.PublicKey)(o[:box.KeySize])
			}
		}
		key.PrecomputeBatch(shared[:n], epubs[:n], errs[:n])
		for i, o := range onions[:n] {
			if errs[i] != nil || box.OpenInto(o[LayerOverhead:], o[box.KeySize:], &nonce, &shared[i]) != nil {
				onions[i] = nil
			} else {
				onions[i] = o[LayerOverhead:]
			}
		}
		onions, shared = onions[n:], shared[n:]
	}
}

// Unwrap is UnwrapInPlace on a copy of the onion, for callers that keep
// theirs: it returns the inner onion and the shared key, each freshly
// allocated.
func Unwrap(onion []byte, key *box.DHKey, round uint64, layer int) (inner []byte, shared *[box.KeySize]byte, err error) {
	shared = new([box.KeySize]byte)
	if inner, err = UnwrapInPlace(bytes.Clone(onion), key, shared, round, layer); err != nil {
		return nil, nil, err
	}
	return inner, shared, nil
}

// UnwrapLayer is Unwrap for a raw private key, parsed on every call; a
// server unwrapping a batch parses its key once and calls
// UnwrapBatchInPlace.
func UnwrapLayer(onion []byte, priv *box.PrivateKey, round uint64, layer int) ([]byte, *[box.KeySize]byte, error) {
	return Unwrap(onion, box.NewDHKey(priv), round, layer)
}

// SealReplyInto encrypts a reply payload as server `layer` under the
// shared key UnwrapInPlace produced (Algorithm 2 step 4), into out, which
// is ReplyOverhead longer than reply; a server seals a round's replies
// into one slab.
func SealReplyInto(out, reply []byte, key *[box.KeySize]byte, round uint64, layer int) {
	nonce := replyNonce(round, layer)
	box.SealInto(out, reply, &nonce, key)
}

// SealReply is SealReplyInto a fresh buffer.
func SealReply(reply []byte, key *[box.KeySize]byte, round uint64, layer int) []byte {
	out := make([]byte, ReplyOverhead+len(reply))
	SealReplyInto(out, reply, key, round, layer)
	return out
}

// UnwrapReply removes all reply layers in chain order using the shared
// keys returned by Wrap, yielding the innermost reply payload
// (Algorithm 1 step 3). The reply is copied once and every layer opened
// in place in that copy; ct is left untouched.
func UnwrapReply(ct []byte, round uint64, startLayer int, keys []*[box.KeySize]byte) ([]byte, error) {
	buf := bytes.Clone(ct)
	for i, key := range keys {
		if len(buf) < ReplyOverhead {
			return nil, ErrDecrypt
		}
		nonce := replyNonce(round, startLayer+i)
		if err := box.OpenInto(buf[ReplyOverhead:], buf, &nonce, key); err != nil {
			return nil, ErrDecrypt
		}
		buf = buf[ReplyOverhead:]
	}
	return buf, nil
}

// Package box implements NaCl-style public-key authenticated encryption
// (crypto_box) and secret-key authenticated encryption (crypto_secretbox),
// the primitives Vuvuzela uses for all message encryption (paper §7).
//
// The construction is exactly NaCl's: X25519 Diffie-Hellman (via the
// standard library's crypto/ecdh), HSalsa20 key derivation, and
// XSalsa20-Poly1305 authenticated encryption using the Salsa20 and Poly1305
// implementations in sibling packages. Ciphertexts are laid out as
// tag(16) || encrypted-payload, NaCl's "boxed" order.
//
// The package also provides an anonymous sealed box (ephemeral-sender box)
// used for dialing invitations (§5.2): 32-byte ephemeral public key
// followed by a box, for a total overhead of 48 bytes — matching the
// paper's 80-byte invitations carrying a 32-byte payload.
//
// # Parsed keys
//
// Keys travel as raw 32-byte arrays (PrivateKey, PublicKey), but every
// Diffie-Hellman runs on a parsed handle: a DHKey for your own key, a Peer
// for a fixed other side.
//
// A DHKey is a private key parsed once. It exists because of a cost
// crypto/ecdh hides: NewPrivateKey derives and stores the public key
// eagerly, one base-point scalar mult, so building the ecdh key from raw
// bytes for each exchange doubles the Curve25519 work — and that work is
// what sets a server's round latency (§8.2). Whoever uses a key more than
// once (a chain server unwrapping a batch, a client scanning an invitation
// bucket, a handshake) holds a DHKey and pays one mult per exchange; a
// freshly generated ephemeral key stays a DHKey from generation to its one
// exchange, two mults instead of three. The raw-key functions (Precompute,
// PublicKeyOf, GenerateKey) are few-line wrappers that parse and delegate,
// and DHKey.PrecomputeInto writes the key into the caller's storage so
// that a server agreeing one per onion allocates none of its own. A DHKey
// holds secret key material, like the PrivateKey it was parsed from: it
// has no String method and must not be logged or compared; compare
// Public() values.
//
// A Peer is a public key parsed once for a party that many fresh
// ephemeral keys agree with: a mixing server's downstream chain, a
// client's whole chain. Both scalar mults of such an agreement have a
// fixed base, the generator and the peer's key, so Peer.Agree runs them on
// comb tables built ahead (internal/crypto/x25519; the generator's once
// per process, the peer's by NewPeer) at about half the ladder's cost, and
// returns the bytes an ephemeral DHKey's PrecomputeInto would. Every
// exchange whose base is someone's fresh ephemeral key — a server
// unwrapping an onion, OpenAnonymous, the transport handshake — and the
// one-shot SealAnonymous stay on crypto/ecdh.
package box

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"io"

	"vuvuzela/internal/crypto/poly1305"
	"vuvuzela/internal/crypto/salsa"
	"vuvuzela/internal/crypto/x25519"
)

const (
	// KeySize is the size of public keys, private keys, and shared keys.
	KeySize = 32
	// NonceSize is the XSalsa20-Poly1305 nonce size.
	NonceSize = 24
	// Overhead is the number of bytes of ciphertext expansion (the
	// Poly1305 tag).
	Overhead = poly1305.TagSize
	// AnonymousOverhead is the expansion of an anonymous sealed box:
	// an ephemeral public key plus a tag.
	AnonymousOverhead = KeySize + Overhead
)

// PublicKey is an X25519 public key (a Montgomery-u coordinate).
type PublicKey [KeySize]byte

// PrivateKey is an X25519 private key (a scalar).
type PrivateKey [KeySize]byte

var (
	// ErrDecrypt indicates an authentication failure: the ciphertext was
	// not produced under the given key and nonce.
	ErrDecrypt = errors.New("box: authentication failed")
	// ErrKeyExchange indicates an invalid peer public key (e.g. a
	// low-order point producing an all-zero shared secret).
	ErrKeyExchange = errors.New("box: key exchange failed")
)

var curve = ecdh.X25519()

// DHKey is a parsed X25519 private key: the handle every Diffie-Hellman
// in this package runs on (see the package comment). It holds secret key
// material — never log it, never compare it; compare Public() values
// instead. A DHKey is immutable after construction, so any number of
// goroutines may share one.
type DHKey struct {
	sk  *ecdh.PrivateKey
	pub PublicKey
}

// NewDHKey parses a raw private key. This is where crypto/ecdh derives
// the public key (one base-point scalar mult), so parse a long-lived key
// once and keep the handle.
func NewDHKey(priv *PrivateKey) (*DHKey, error) {
	k := new(DHKey)
	if err := k.parse(priv); err != nil {
		return nil, err
	}
	return k, nil
}

// parse is NewDHKey into k; split out so NewDHKey inlines and a
// parse-use-discard caller's handle stays on its stack.
func (k *DHKey) parse(priv *PrivateKey) error {
	sk, err := curve.NewPrivateKey(priv[:])
	if err != nil {
		return err
	}
	k.set(sk)
	return nil
}

// GenerateDHKey creates a fresh key using entropy from r (crypto/rand.Reader
// if r is nil), drawn as one KeySize-byte read.
func GenerateDHKey(r io.Reader) (*DHKey, error) {
	if r == nil {
		r = rand.Reader
	}
	sk, err := curve.GenerateKey(r)
	if err != nil {
		return nil, err
	}
	k := new(DHKey)
	k.set(sk)
	return k, nil
}

func (k *DHKey) set(sk *ecdh.PrivateKey) {
	k.sk = sk
	copy(k.pub[:], sk.PublicKey().Bytes())
}

// Public returns the public key corresponding to k.
func (k *DHKey) Public() PublicKey { return k.pub }

// Precompute computes the NaCl box shared key between k and a peer's
// public key: HSalsa20(X25519(k, peer), 0), exactly crypto_box_beforenm.
// The shared key can be used with Seal and Open; both directions of a
// conversation derive the same key. It costs one scalar mult. A peer key
// that yields the all-zero shared secret (a low-order point) is rejected
// with ErrKeyExchange.
func (k *DHKey) Precompute(peersPublic *PublicKey) (*[KeySize]byte, error) {
	shared := new([KeySize]byte)
	if err := k.PrecomputeInto(shared, peersPublic); err != nil {
		return nil, err
	}
	return shared, nil
}

// PrecomputeInto is Precompute writing the shared key into storage the
// caller owns — a server unwrapping a batch keeps one slab of keys per
// round. What still allocates is inside crypto/ecdh: the parsed peer key
// (2) and the raw shared secret (1). peersPublic is handed to crypto/ecdh
// through an interface, so a stack value passed here moves to the heap;
// point it at bytes that already live there.
func (k *DHKey) PrecomputeInto(shared *[KeySize]byte, peersPublic *PublicKey) error {
	pk, err := curve.NewPublicKey(peersPublic[:])
	if err != nil {
		return ErrKeyExchange
	}
	dh, err := k.sk.ECDH(pk)
	if err != nil {
		return ErrKeyExchange
	}
	var zeros [16]byte
	salsa.HSalsa20(shared, (*[KeySize]byte)(dh), &zeros)
	return nil
}

// Peer is a parsed X25519 public key that fresh ephemeral keys agree with
// (see the package comment): its comb table is built once, by NewPeer. It
// holds only public data and is immutable, so any number of goroutines may
// share one.
type Peer struct {
	table *x25519.Table
}

// NewPeer parses a peer's public key, building its table (a fraction of a
// millisecond). It refuses a value that is not a point of Curve25519 (a
// twist point), which no X25519 key pair has as its public half; a
// low-order point is accepted here and refused by Agree.
func NewPeer(pub *PublicKey) (*Peer, error) {
	t, err := x25519.NewTable((*[KeySize]byte)(pub))
	if err != nil {
		return nil, err
	}
	return &Peer{table: t}, nil
}

// NewPeers is NewPeer for each key of a chain, in order.
func NewPeers(pubs []PublicKey) ([]*Peer, error) {
	peers := make([]*Peer, len(pubs))
	for i := range pubs {
		var err error
		if peers[i], err = NewPeer(&pubs[i]); err != nil {
			return nil, err
		}
	}
	return peers, nil
}

// Agree draws a fresh ephemeral key from rng (crypto/rand.Reader if nil)
// as one KeySize-byte read, writes the NaCl box key it shares with p into
// shared — HSalsa20(X25519(e, p), 0), what the ephemeral DHKey's
// PrecomputeInto would give — and returns the ephemeral public key. It
// allocates nothing. A low-order peer key yields the all-zero secret and
// ErrKeyExchange; on any error shared is zeroed.
func (p *Peer) Agree(shared *[KeySize]byte, rng io.Reader) (PublicKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	// The scalar is read through shared: a local array handed to an
	// io.Reader would move to the heap.
	if _, err := io.ReadFull(rng, shared[:]); err != nil {
		clear(shared[:])
		return PublicKey{}, err
	}
	var epub PublicKey
	var dh [KeySize]byte
	x25519.BaseTable().Mul((*[KeySize]byte)(&epub), shared)
	p.table.Mul(&dh, shared)
	var zero [KeySize]byte
	if subtle.ConstantTimeCompare(dh[:], zero[:]) == 1 {
		clear(shared[:])
		return PublicKey{}, ErrKeyExchange
	}
	var zeros [16]byte
	salsa.HSalsa20(shared, &dh, &zeros)
	return epub, nil
}

// GenerateKey creates a fresh X25519 key pair using entropy from r
// (crypto/rand.Reader if r is nil).
func GenerateKey(r io.Reader) (PublicKey, PrivateKey, error) {
	k, err := GenerateDHKey(r)
	if err != nil {
		return PublicKey{}, PrivateKey{}, err
	}
	var priv PrivateKey
	copy(priv[:], k.sk.Bytes())
	return k.pub, priv, nil
}

// KeyPairFromSeed derives a deterministic key pair from a 32-byte seed.
// Used for reproducible tests and simulations; the seed is hashed so any
// distribution of seeds is acceptable.
func KeyPairFromSeed(seed []byte) (PublicKey, PrivateKey) {
	priv := PrivateKey(sha256.Sum256(seed))
	k, err := NewDHKey(&priv)
	if err != nil {
		// A 32-byte input is always a valid X25519 private key.
		panic("box: impossible: " + err.Error())
	}
	return k.pub, priv
}

// PublicKeyOf returns the public key corresponding to a private key.
func PublicKeyOf(priv *PrivateKey) (PublicKey, error) {
	k, err := NewDHKey(priv)
	if err != nil {
		return PublicKey{}, err
	}
	return k.pub, nil
}

// Precompute is DHKey.Precompute for a raw private key. It parses priv on
// every call (two scalar mults in all); callers that use a key more than
// once should hold a DHKey.
func Precompute(peersPublic *PublicKey, priv *PrivateKey) (*[KeySize]byte, error) {
	k, err := NewDHKey(priv)
	if err != nil {
		return nil, ErrKeyExchange
	}
	return k.Precompute(peersPublic)
}

// Seal encrypts and authenticates msg with XSalsa20-Poly1305 under the
// given shared key and nonce, returning tag || ciphertext. This is
// crypto_secretbox (and crypto_box_afternm).
func Seal(msg []byte, nonce *[NonceSize]byte, key *[KeySize]byte) []byte {
	out := make([]byte, Overhead+len(msg))
	SealInto(out, msg, nonce, key)
	return out
}

// SealInto is Seal writing into a caller-provided buffer of length
// Overhead+len(msg). out must not alias msg except when out[Overhead:]
// exactly overlaps msg.
func SealInto(out, msg []byte, nonce *[NonceSize]byte, key *[KeySize]byte) {
	if len(out) != Overhead+len(msg) {
		panic("box: bad output buffer size")
	}
	subKey, subNonce := salsa.DeriveX(key, nonce)

	// Keystream block 0: bytes 0..31 are the Poly1305 key, bytes 32..63
	// mask the first 32 bytes of plaintext.
	var block0 [salsa.BlockSize]byte
	salsa.KeyStreamBlock(&block0, &subKey, &subNonce, 0)
	var polyKey [poly1305.KeySize]byte
	copy(polyKey[:], block0[:32])

	ct := out[Overhead:]
	n := len(msg)
	if n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		ct[i] = msg[i] ^ block0[32+i]
	}
	if len(msg) > 32 {
		salsa.XORKeyStream(ct[32:], msg[32:], &subKey, &subNonce, 1)
	}

	var tag [poly1305.TagSize]byte
	poly1305.Sum(&tag, ct, &polyKey)
	copy(out[:Overhead], tag[:])
}

// Open authenticates and decrypts a box produced by Seal, returning the
// plaintext. It returns ErrDecrypt if authentication fails.
func Open(ct []byte, nonce *[NonceSize]byte, key *[KeySize]byte) ([]byte, error) {
	if len(ct) < Overhead {
		return nil, ErrDecrypt
	}
	msg := make([]byte, len(ct)-Overhead)
	if err := OpenInto(msg, ct, nonce, key); err != nil {
		return nil, err
	}
	return msg, nil
}

// OpenInto is Open writing the plaintext into a caller-provided buffer of
// length len(ct)-Overhead, the zero-allocation sibling of SealInto. out
// must not alias ct except when out exactly overlaps ct[Overhead:]
// (in-place decryption). Nothing is written to out unless authentication
// succeeds, so a reused buffer never ends up holding forged bytes.
func OpenInto(out, ct []byte, nonce *[NonceSize]byte, key *[KeySize]byte) error {
	if len(ct) < Overhead {
		return ErrDecrypt
	}
	if len(out) != len(ct)-Overhead {
		panic("box: bad output buffer size")
	}
	subKey, subNonce := salsa.DeriveX(key, nonce)

	var block0 [salsa.BlockSize]byte
	salsa.KeyStreamBlock(&block0, &subKey, &subNonce, 0)
	var polyKey [poly1305.KeySize]byte
	copy(polyKey[:], block0[:32])

	var tag [poly1305.TagSize]byte
	copy(tag[:], ct[:Overhead])
	body := ct[Overhead:]
	if !poly1305.Verify(&tag, body, &polyKey) {
		return ErrDecrypt
	}

	n := len(body)
	if n > 32 {
		n = 32
	}
	for i := 0; i < n; i++ {
		out[i] = body[i] ^ block0[32+i]
	}
	if len(body) > 32 {
		salsa.XORKeyStream(out[32:], body[32:], &subKey, &subNonce, 1)
	}
	return nil
}

// SealAnonymous encrypts msg to the recipient's public key from a fresh
// ephemeral key pair, so the ciphertext cannot be linked to the sender:
// epk(32) || box(msg). The nonce is derived as SHA-256(epk || rpk)[:24],
// which is safe because the ephemeral key is unique per message. This is
// the construction used for dialing invitations (§5.2); a 32-byte payload
// yields the paper's 80-byte invitation.
func SealAnonymous(msg []byte, recipient *PublicKey, rng io.Reader) ([]byte, error) {
	ek, err := GenerateDHKey(rng)
	if err != nil {
		return nil, err
	}
	nonce := anonymousNonce(&ek.pub, recipient)
	shared, err := ek.Precompute(recipient)
	if err != nil {
		return nil, err
	}
	out := make([]byte, KeySize+Overhead+len(msg))
	copy(out, ek.pub[:])
	SealInto(out[KeySize:], msg, &nonce, shared)
	return out, nil
}

// OpenAnonymous decrypts a SealAnonymous ciphertext as the recipient k.
// recipientPub is the public key the sender addressed — k.Public() for an
// honest caller; it is bound into the nonce, so any other value fails
// with ErrDecrypt. Dialing clients trial-decrypt every invitation in
// their dead drop with one handle (§5.1).
func (k *DHKey) OpenAnonymous(ct []byte, recipientPub *PublicKey) ([]byte, error) {
	if len(ct) < AnonymousOverhead {
		return nil, ErrDecrypt
	}
	var epub PublicKey
	copy(epub[:], ct[:KeySize])
	shared, err := k.Precompute(&epub)
	if err != nil {
		return nil, err
	}
	nonce := anonymousNonce(&epub, recipientPub)
	return Open(ct[KeySize:], &nonce, shared)
}

func anonymousNonce(epub, rpub *PublicKey) [NonceSize]byte {
	h := sha256.New()
	h.Write([]byte("vuvuzela-sealed-v1"))
	h.Write(epub[:])
	h.Write(rpub[:])
	var nonce [NonceSize]byte
	copy(nonce[:], h.Sum(nil))
	return nonce
}

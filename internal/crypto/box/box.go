// Package box implements NaCl-style public-key authenticated encryption
// (crypto_box) and secret-key authenticated encryption (crypto_secretbox),
// the primitives Vuvuzela uses for all message encryption (paper §7).
//
// The construction is exactly NaCl's: X25519 Diffie-Hellman (on
// internal/crypto/x25519, the one Curve25519 kernel), HSalsa20 key
// derivation, and XSalsa20-Poly1305 authenticated encryption using the
// Salsa20 and Poly1305 implementations in sibling packages. Ciphertexts
// are laid out as tag(16) || encrypted-payload, NaCl's "boxed" order.
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
// A DHKey is a private key with its public half derived once, on the
// generator's comb table. Whoever uses a key more than once (a chain
// server unwrapping a batch, a client scanning an invitation bucket, a
// handshake) holds a DHKey and pays one ladder per exchange: the other
// side's key is first seen in the exchange. PrecomputeInto writes the key
// into the caller's storage and allocates nothing; PrecomputeBatch agrees
// up to MaxBatch peers' keys under one field inversion, the chunks a
// server unwraps its onions in. The raw-key functions (Precompute,
// PublicKeyOf, GenerateKey) are few-line wrappers that parse and delegate.
// A DHKey holds secret key material, like the PrivateKey it was parsed
// from: it has no String method and must not be logged or compared;
// compare Public() values.
//
// A Peer is a public key parsed once for a party that many fresh
// ephemeral keys agree with: a mixing server's downstream chain, a
// client's whole chain. Both scalar mults of such an agreement have a
// fixed base, the generator and the peer's key, so Agree runs them on comb
// tables built ahead (the generator's once per process, the peer's by
// NewPeer), a whole onion path's agreements or a chunk of paths' in one
// call, and gives the keys an ephemeral DHKey's PrecomputeInto would. On
// a CPU with AVX-512 IFMA the comb runs 8 products of one table at once,
// so Agree orders its products by table.
package box

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"io"
	"slices"

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

// DHKey is a parsed X25519 private key: the handle every Diffie-Hellman
// in this package runs on (see the package comment). It holds secret key
// material — never log it, never compare it; compare Public() values
// instead. A DHKey is immutable after construction, so any number of
// goroutines may share one.
type DHKey struct {
	sk  [KeySize]byte
	pub PublicKey
}

// NewDHKey parses a raw private key, deriving its public half (one comb
// mult). Every 32-byte value is a private key.
func NewDHKey(priv *PrivateKey) *DHKey {
	k := &DHKey{sk: *priv}
	k.derive()
	return k
}

// GenerateDHKey creates a fresh key using entropy from r (crypto/rand.Reader
// if r is nil), drawn as one KeySize-byte read and nothing else, so a
// seeded stream gives the same key on every run.
func GenerateDHKey(r io.Reader) (*DHKey, error) {
	if r == nil {
		r = rand.Reader
	}
	k := new(DHKey)
	if _, err := io.ReadFull(r, k.sk[:]); err != nil {
		return nil, err
	}
	k.derive()
	return k, nil
}

// derive sets k's public half from its private key.
func (k *DHKey) derive() { x25519.BaseTable().Mul((*[KeySize]byte)(&k.pub), &k.sk) }

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
// caller owns, a batch of one (PrecomputeBatch). It allocates nothing.
func (k *DHKey) PrecomputeInto(shared *[KeySize]byte, peersPublic *PublicKey) error {
	var key [1][KeySize]byte
	var err [1]error
	k.PrecomputeBatch(key[:], []*PublicKey{peersPublic}, err[:])
	*shared = key[0]
	return err[0]
}

// MaxBatch is the most exchanges one PrecomputeBatch call takes.
const MaxBatch = x25519.MaxBatch

// PrecomputeBatch is PrecomputeInto for up to MaxBatch peers at once, one
// ladder each and one field inversion for all: shared[i] gets the key k
// shares with *peers[i], and errs[i] is ErrKeyExchange where that exchange
// yields the all-zero secret (shared[i] is then meaningless) and nil
// elsewhere. A low-order peer key changes no other element's result. It
// allocates nothing.
func (k *DHKey) PrecomputeBatch(shared [][KeySize]byte, peers []*PublicKey, errs []error) {
	var out, points [MaxBatch]*[KeySize]byte
	for i := range peers {
		out[i], points[i] = &shared[i], (*[KeySize]byte)(peers[i])
	}
	x25519.Ladder(out[:len(peers)], &k.sk, points[:len(peers)])
	for i := range peers {
		errs[i] = deriveKey(&shared[i])
	}
}

// deriveKey replaces the raw X25519 secret in key with its NaCl box key,
// HSalsa20(secret, 0), refusing the all-zero secret of a low-order peer
// with ErrKeyExchange.
func deriveKey(key *[KeySize]byte) error {
	var zero [KeySize]byte
	if subtle.ConstantTimeCompare(key[:], zero[:]) == 1 {
		return ErrKeyExchange
	}
	var zeros [16]byte
	salsa.HSalsa20(key, key, &zeros)
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

// Agreement is one ephemeral key agreement with a Peer (Agree).
type Agreement struct {
	// Key holds a fresh ephemeral private key going in, and the NaCl box
	// key it shares with the peer coming out.
	Key [KeySize]byte
	// Public is the ephemeral public key, set by Agree.
	Public PublicKey
}

// Agree completes a[i] with peers[i%len(peers)] for every i — a path's
// agreements, or several paths' one after another — giving the keys an
// ephemeral DHKey's PrecomputeInto would. Both scalar mults of each run on
// comb tables, ordered by table — every generator product first, then
// each peer's products together — so that x25519.MulBatch finds full lane
// groups, MaxBatch products under one field inversion. It allocates
// nothing. A low-order peer key yields the all-zero secret: its
// agreement's Key is zeroed and Agree returns ErrKeyExchange.
func Agree(a []Agreement, peers []*Peer) error {
	var b combBatch
	for i := range a {
		b.add((*[KeySize]byte)(&a[i].Public), x25519.BaseTable(), &a[i].Key)
	}
	for i, p := range peers {
		if slices.Index(peers[:i], p) >= 0 {
			continue
		}
		for j := i; j < len(a); j++ {
			if peers[j%len(peers)] == p {
				// The secret replaces the private key, which its
				// generator product has read by now: in an earlier batch
				// or this one, and MulBatch reads before it writes.
				b.add(&a[j].Key, p.table, &a[j].Key)
			}
		}
	}
	b.flush()
	var err error
	for i := range a {
		if e := deriveKey(&a[i].Key); e != nil {
			err = e
		}
	}
	return err
}

// combBatch gathers comb products for x25519.MulBatch, running each full
// batch as it fills.
type combBatch struct {
	n            int
	out, scalars [MaxBatch]*[KeySize]byte
	tables       [MaxBatch]*x25519.Table
}

func (b *combBatch) add(out *[KeySize]byte, t *x25519.Table, scalar *[KeySize]byte) {
	b.out[b.n], b.tables[b.n], b.scalars[b.n] = out, t, scalar
	if b.n++; b.n == MaxBatch {
		b.flush()
	}
}

func (b *combBatch) flush() {
	x25519.MulBatch(b.out[:b.n], b.tables[:b.n], b.scalars[:b.n])
	b.n = 0
}

// GenerateKey creates a fresh X25519 key pair using entropy from r
// (crypto/rand.Reader if r is nil).
func GenerateKey(r io.Reader) (PublicKey, PrivateKey, error) {
	k, err := GenerateDHKey(r)
	if err != nil {
		return PublicKey{}, PrivateKey{}, err
	}
	return k.pub, k.sk, nil
}

// KeyPairFromSeed derives a deterministic key pair from a 32-byte seed.
// Used for reproducible tests and simulations; the seed is hashed so any
// distribution of seeds is acceptable.
func KeyPairFromSeed(seed []byte) (PublicKey, PrivateKey) {
	priv := PrivateKey(sha256.Sum256(seed))
	return PublicKeyOf(&priv), priv
}

// PublicKeyOf returns the public key corresponding to a private key.
func PublicKeyOf(priv *PrivateKey) PublicKey { return NewDHKey(priv).pub }

// Precompute is DHKey.Precompute for a raw private key. It parses priv on
// every call (two scalar mults in all); callers that use a key more than
// once should hold a DHKey.
func Precompute(peersPublic *PublicKey, priv *PrivateKey) (*[KeySize]byte, error) {
	return NewDHKey(priv).Precompute(peersPublic)
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

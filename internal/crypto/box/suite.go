package box

import (
	"crypto/aes"
	"crypto/cipher"
)

// Suite is a symmetric AEAD suite keyed by a 32-byte shared key with
// 24-byte nonces. Vuvuzela's default suite is XSalsa20-Poly1305 (NaCl,
// matching the paper); an AES-256-GCM suite is provided so deployments
// with AES hardware can trade the paper's cipher for an order of
// magnitude more record-layer throughput (see BenchmarkSecureRecord in
// internal/transport and the ablation benches in bench_test.go). Both suites share the
// tag(16) || ciphertext layout, so they are interchangeable on the wire.
type Suite interface {
	// Name identifies the suite.
	Name() string
	// Overhead is the ciphertext expansion in bytes.
	Overhead() int
	// Seal encrypts and authenticates msg.
	Seal(msg []byte, nonce *[NonceSize]byte, key *[KeySize]byte) []byte
	// Open authenticates and decrypts ct, returning ErrDecrypt on failure.
	Open(ct []byte, nonce *[NonceSize]byte, key *[KeySize]byte) ([]byte, error)
	// Key binds the suite to one shared key for repeated allocation-free
	// sealing and opening (a long-lived record stream). Implementations
	// do all per-key setup here so the per-record path stays cheap.
	Key(key *[KeySize]byte) Keyed
}

// Keyed is a Suite bound to one shared key: the zero-allocation
// seal/open interface the transport record layer runs on. The buffer
// contracts are strict so implementations never need scratch heap:
//
//   - SealInto writes tag ‖ ciphertext into out, which must have length
//     Overhead()+len(msg) and capacity at least len(out)+Overhead()
//     (suites that produce the tag last use the tail capacity as
//     scratch). out must not alias msg.
//   - OpenInto writes the plaintext into out, which must have length
//     len(ct)-Overhead(). out must not alias ct, and ct's contents are
//     unspecified after the call (suites may reorder it in place). On
//     failure out's contents are unspecified but never hold forged
//     plaintext (suites either leave it untouched or zero it).
type Keyed interface {
	// Overhead is the ciphertext expansion in bytes, matching the suite.
	Overhead() int
	// SealInto encrypts and authenticates msg into out.
	SealInto(out, msg []byte, nonce *[NonceSize]byte)
	// OpenInto authenticates and decrypts ct into out, returning
	// ErrDecrypt on failure.
	OpenInto(out, ct []byte, nonce *[NonceSize]byte) error
}

// NaClSuite is the XSalsa20-Poly1305 suite used by the paper's prototype.
type NaClSuite struct{}

// Name implements Suite.
func (NaClSuite) Name() string { return "xsalsa20poly1305" }

// Overhead implements Suite.
func (NaClSuite) Overhead() int { return Overhead }

// Seal implements Suite.
func (NaClSuite) Seal(msg []byte, nonce *[NonceSize]byte, key *[KeySize]byte) []byte {
	return Seal(msg, nonce, key)
}

// Open implements Suite.
func (NaClSuite) Open(ct []byte, nonce *[NonceSize]byte, key *[KeySize]byte) ([]byte, error) {
	return Open(ct, nonce, key)
}

// Key implements Suite.
func (NaClSuite) Key(key *[KeySize]byte) Keyed {
	k := &naclKeyed{}
	k.key = *key
	return k
}

// naclKeyed is NaClSuite bound to one key; XSalsa20-Poly1305 has no
// per-key setup, so it just captures the key for SealInto/OpenInto.
type naclKeyed struct {
	// key is the captured shared key.
	key [KeySize]byte
}

// Overhead implements Keyed.
func (*naclKeyed) Overhead() int { return Overhead }

// SealInto implements Keyed.
func (k *naclKeyed) SealInto(out, msg []byte, nonce *[NonceSize]byte) {
	SealInto(out, msg, nonce, &k.key)
}

// OpenInto implements Keyed.
func (k *naclKeyed) OpenInto(out, ct []byte, nonce *[NonceSize]byte) error {
	return OpenInto(out, ct, nonce, &k.key)
}

// GCMSuite is an AES-256-GCM alternative with the same 16-byte overhead.
// The 24-byte protocol nonce is truncated to GCM's 12 bytes; protocol
// nonces are unique per key, so the truncation is safe here because every
// nonce derivation in this codebase varies within the first 12 bytes or is
// used under a fresh key.
type GCMSuite struct{}

// Name implements Suite.
func (GCMSuite) Name() string { return "aes256gcm" }

// Overhead implements Suite.
func (GCMSuite) Overhead() int { return 16 }

// Seal implements Suite.
func (GCMSuite) Seal(msg []byte, nonce *[NonceSize]byte, key *[KeySize]byte) []byte {
	aead := newGCM(key)
	// Emit tag || ciphertext to match the NaCl layout so the two suites
	// are interchangeable on the wire.
	sealed := aead.Seal(nil, nonce[:12], msg, nil)
	ct, tag := sealed[:len(msg)], sealed[len(msg):]
	out := make([]byte, 0, len(sealed))
	out = append(out, tag...)
	out = append(out, ct...)
	return out
}

// Open implements Suite.
func (GCMSuite) Open(ct []byte, nonce *[NonceSize]byte, key *[KeySize]byte) ([]byte, error) {
	if len(ct) < 16 {
		return nil, ErrDecrypt
	}
	aead := newGCM(key)
	tag, body := ct[:16], ct[16:]
	buf := make([]byte, 0, len(ct))
	buf = append(buf, body...)
	buf = append(buf, tag...)
	msg, err := aead.Open(nil, nonce[:12], buf, nil)
	if err != nil {
		return nil, ErrDecrypt
	}
	return msg, nil
}

// Key implements Suite. The AES key schedule and GCM tables are built
// once here, not per record.
func (GCMSuite) Key(key *[KeySize]byte) Keyed {
	return &gcmKeyed{aead: newGCM(key)}
}

// gcmKeyed is GCMSuite bound to one key, holding the expanded AEAD.
type gcmKeyed struct {
	// aead is the AES-256-GCM instance for the captured key.
	aead cipher.AEAD
}

// Overhead implements Keyed.
func (*gcmKeyed) Overhead() int { return 16 }

// SealInto implements Keyed. Go's GCM emits ciphertext ‖ tag; the wire
// layout is tag ‖ ciphertext, so the record is sealed into out shifted
// by one tag width — using the tail capacity the Keyed contract
// guarantees — and the tag is then moved to the front. Only 16 bytes are
// copied; the payload is encrypted in place.
func (g *gcmKeyed) SealInto(out, msg []byte, nonce *[NonceSize]byte) {
	if len(out) != 16+len(msg) || cap(out) < len(out)+16 {
		panic("box: bad output buffer size")
	}
	// Writes ciphertext to out[16:16+len(msg)] and the tag to the tail
	// scratch out[16+len(msg) : 32+len(msg)].
	g.aead.Seal(out[16:16], nonce[:12], msg, nil)
	copy(out[:16], out[16+len(msg):32+len(msg)])
}

// OpenInto implements Keyed. The tag ‖ body wire layout is rotated in
// place to Go's body ‖ tag order (ct's contents are unspecified after
// the call, per the Keyed contract) and opened directly into out.
func (g *gcmKeyed) OpenInto(out, ct []byte, nonce *[NonceSize]byte) error {
	if len(ct) < 16 {
		return ErrDecrypt
	}
	if len(out) != len(ct)-16 {
		panic("box: bad output buffer size")
	}
	var tag [16]byte
	copy(tag[:], ct[:16])
	copy(ct, ct[16:])
	copy(ct[len(ct)-16:], tag[:])
	if _, err := g.aead.Open(out[:0], nonce[:12], ct, nil); err != nil {
		return ErrDecrypt
	}
	return nil
}

func newGCM(key *[KeySize]byte) cipher.AEAD {
	blk, err := aes.NewCipher(key[:])
	if err != nil {
		panic("box: " + err.Error())
	}
	aead, err := cipher.NewGCM(blk)
	if err != nil {
		panic("box: " + err.Error())
	}
	return aead
}

// DefaultSuite is the suite used by the protocol stack: NaCl, as in the
// paper.
var DefaultSuite Suite = NaClSuite{}

// Package dial implements Vuvuzela's dialing protocol (paper §5): sending
// invitations to per-recipient invitation dead drops, the no-op dead drop
// for idle clients, per-bucket server noise, bucket publication, and the
// client-side trial decryption of downloaded buckets.
package dial

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"io"
	"math"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/noise"
)

const (
	// InvitationPayloadSize is the plaintext invitation: the sender's
	// long-term public key ("The invitation itself consists of the
	// sender's public key", §5.1).
	InvitationPayloadSize = box.KeySize
	// InvitationSize is the sealed invitation: 80 bytes including 48
	// bytes of overhead (§8.1).
	InvitationSize = InvitationPayloadSize + box.AnonymousOverhead
	// bucketPrefix is the bucket index header on the innermost dialing
	// request.
	bucketPrefix = 4
	// RequestSize is the innermost dialing request: bucket index plus
	// sealed invitation.
	RequestSize = bucketPrefix + InvitationSize
	// NoOpBucket is the special bucket index for clients not dialing
	// anyone this round ("the client writes into a special no-op dead
	// drop that is not used by any recipient", §5.2). The last server
	// discards these without storing them.
	NoOpBucket = ^uint32(0)
)

// BucketOf maps a user's long-term public key to its invitation dead drop:
// H(pk) mod m (§5.1).
func BucketOf(pk *box.PublicKey, m uint32) uint32 {
	if m == 0 {
		return 0
	}
	sum := sha256.Sum256(pk[:])
	return uint32(binary.BigEndian.Uint64(sum[:8]) % uint64(m))
}

// OptimalBuckets computes the paper's recommended number of invitation
// dead drops (§5.4): m = n·f/µ, where n is the number of users, f the
// fraction dialing per round, and µ the per-bucket noise mean — balancing
// server cover-traffic cost against client download size so each bucket
// carries roughly equal real and noise invitations. At small scale the
// optimum collapses to a single bucket (§7). Degenerate parameters (no
// users, a non-positive or NaN µ or fraction) also yield one bucket,
// and the result saturates at MaxUint32 — the conversion of an
// out-of-range float to uint32 is otherwise unspecified. A deployment
// states its m once, as chain.json's dial_buckets; `vuvuzela-bench
// buckets` prints this optimum for the paper's scale.
func OptimalBuckets(users int, dialingFraction, mu float64) uint32 {
	if mu <= 0 || users <= 0 || dialingFraction <= 0 || math.IsNaN(mu) || math.IsNaN(dialingFraction) {
		return 1
	}
	m := float64(users) * dialingFraction / mu
	if m < 1 || math.IsNaN(m) {
		return 1
	}
	if m >= float64(math.MaxUint32) {
		return math.MaxUint32
	}
	return uint32(m)
}

// Invitation is a received, decrypted invitation.
type Invitation struct {
	// Sender is the long-term public key of the caller; the recipient
	// derives the conversation secret from it (§5.1).
	Sender box.PublicKey
}

// Seal builds the sealed invitation for a recipient: the sender's public
// key encrypted to the recipient's key from a fresh ephemeral key, so the
// wire form is unlinkable to the sender (§5.2: "Invitations are also
// onion-encrypted and shuffled, so that they are unlinked from their
// sender"; the anonymous box additionally hides the sender from the
// recipient's server).
func (inv *Invitation) Seal(recipient *box.PublicKey, rng io.Reader) ([]byte, error) {
	return box.SealAnonymous(inv.Sender[:], recipient, rng)
}

// openInvitation attempts to decrypt one sealed invitation with the
// recipient's key, parsed once per bucket by ScanBucket.
func openInvitation(sealed []byte, recipientPub *box.PublicKey, key *box.DHKey) (*Invitation, bool) {
	if len(sealed) != InvitationSize {
		return nil, false
	}
	pt, err := key.OpenAnonymous(sealed, recipientPub)
	if err != nil || len(pt) != InvitationPayloadSize {
		return nil, false
	}
	var inv Invitation
	copy(inv.Sender[:], pt)
	return &inv, true
}

// Request is the innermost dialing request processed by the last server:
// deposit Sealed into invitation bucket Bucket.
type Request struct {
	Bucket uint32               // invitation dead drop: H(peerPub) mod m
	Sealed [InvitationSize]byte // the sealed invitation
}

// Marshal encodes the request into its fixed wire form.
func (r *Request) Marshal() []byte {
	out := make([]byte, RequestSize)
	binary.BigEndian.PutUint32(out[:bucketPrefix], r.Bucket)
	copy(out[bucketPrefix:], r.Sealed[:])
	return out
}

// BuildRequest assembles a client's dialing request for a round. If
// recipient is non-nil, it seals an invitation carrying senderPub to the
// recipient's bucket; if recipient is nil it builds the idle request: a
// random payload sealed the same way to a random u, addressed to the
// no-op bucket. So dialing and idling are indistinguishable upstream of
// the last server, and take the same scalar mults: the entry, which sees
// when each client submits, cannot time who dials.
func BuildRequest(senderPub *box.PublicKey, recipient *box.PublicKey, m uint32, rng io.Reader) (*Request, error) {
	if rng == nil {
		rng = rand.Reader
	}
	req := Request{Bucket: NoOpBucket}
	var sealed []byte
	var err error
	if recipient == nil {
		sealed, err = sealNoOp(rng)
	} else {
		req.Bucket = BucketOf(recipient, m)
		inv := Invitation{Sender: *senderPub}
		sealed, err = inv.Seal(recipient, rng)
	}
	if err != nil {
		return nil, err
	}
	copy(req.Sealed[:], sealed)
	return &req, nil
}

// sealNoOp seals a random payload to a random u, drawing both again in
// the negligible case of a low-order u, which SealAnonymous refuses.
func sealNoOp(rng io.Reader) ([]byte, error) {
	for {
		var inv Invitation
		var u box.PublicKey
		if _, err := io.ReadFull(rng, inv.Sender[:]); err != nil {
			return nil, err
		}
		if _, err := io.ReadFull(rng, u[:]); err != nil {
			return nil, err
		}
		sealed, err := inv.Seal(&u, rng)
		if !errors.Is(err, box.ErrKeyExchange) {
			return sealed, err
		}
	}
}

// Buckets holds one dialing round's published invitation dead drops:
// Buckets[i] is the concatenation of all InvitationSize-byte invitations
// (real and noise) deposited into bucket i.
type Buckets struct {
	Round uint64   // the dialing round these buckets belong to
	M     uint32   // the bucket count m the round ran with
	Data  [][]byte // Data[i] is bucket i's concatenated invitations
}

// Invitations returns bucket i's invitations split into fixed-size
// entries.
func (b *Buckets) Invitations(i uint32) [][]byte {
	if i >= uint32(len(b.Data)) {
		return nil
	}
	blob := b.Data[i]
	n := len(blob) / InvitationSize
	out := make([][]byte, 0, n)
	for j := 0; j < n; j++ {
		out = append(out, blob[j*InvitationSize:(j+1)*InvitationSize])
	}
	return out
}

// Service is the last server's dialing round processor: it files each
// request's invitation into its bucket, discards no-op requests, and adds
// the last server's own per-bucket noise (§5.3: "every server (including
// the last one) must add a random number of noise invitations to every
// invitation dead drop").
type Service struct {
	// Rand supplies noise invitation bytes; nil means crypto/rand.
	Rand io.Reader
}

// Process is File without any noise of the last server's own.
func (s Service) Process(round uint64, m uint32, requests [][]byte) *Buckets {
	return s.File(round, m, requests, nil)
}

// File files one round's innermost dialing requests into m buckets, adds
// counts[i] noise invitations to bucket i (counts from NoiseGen.Draw, so
// the caller can bound the noise before any of it is allocated), and
// returns the published buckets. Malformed requests and out-of-range
// buckets are discarded (out-of-range includes the no-op bucket).
func (s Service) File(round uint64, m uint32, requests [][]byte, counts []int) *Buckets {
	rng := s.Rand
	if rng == nil {
		rng = rand.Reader
	}
	data := make([][]byte, m)
	for _, b := range requests {
		if len(b) != RequestSize {
			continue
		}
		if bucket := binary.BigEndian.Uint32(b[:bucketPrefix]); bucket < m {
			data[bucket] = append(data[bucket], b[bucketPrefix:]...)
		}
	}
	for i, n := range counts {
		blob := make([]byte, n*InvitationSize)
		if _, err := io.ReadFull(rng, blob); err != nil {
			panic("dial: randomness source failed: " + err.Error())
		}
		data[i] = append(data[i], blob...)
	}
	return &Buckets{Round: round, M: m, Data: data}
}

// NoiseGen generates a mixing server's dialing cover traffic: for each of
// the m buckets, ⌈max(0,Laplace(µ,b))⌉ noise invitations as innermost
// requests (to be onion-wrapped for the downstream chain), so that the
// bucket sizes observable at the last server are noised (§5.3).
type NoiseGen struct {
	Dist noise.Distribution // per-bucket cover-traffic count distribution
	Src  noise.Source       // uniform source feeding Dist.Sample
	Rand io.Reader          // CSPRNG for the fake invitation bytes
}

// Generate returns the round's noise requests for m buckets, as views
// into one buffer: Draw, then Fill.
func (g NoiseGen) Generate(m uint32) [][]byte {
	counts := make([]int, m)
	total := g.Draw(counts)
	out := make([][]byte, total)
	buf := make([]byte, total*RequestSize)
	for i := range out {
		out[i] = buf[i*RequestSize : (i+1)*RequestSize : (i+1)*RequestSize]
	}
	g.Fill(out, counts)
	return out
}

// Draw samples how many noise invitations each bucket gets this round,
// counts[i] for bucket i, and returns their total. The caller owns counts,
// so a draw allocates nothing.
func (g NoiseGen) Draw(counts []int) (total int) {
	for i := range counts {
		counts[i] = g.Dist.Sample(g.Src)
		total += counts[i]
	}
	return total
}

// Fill writes the noise requests of one Draw into dst, whose elements are
// RequestSize bytes each — for a mixing server, the tails of the onions
// it is about to seal — bucket by bucket.
func (g NoiseGen) Fill(dst [][]byte, counts []int) {
	rng := g.Rand
	if rng == nil {
		rng = rand.Reader
	}
	for bucket, n := range counts {
		for _, b := range dst[:n] {
			binary.BigEndian.PutUint32(b[:bucketPrefix], uint32(bucket))
			if _, err := io.ReadFull(rng, b[bucketPrefix:]); err != nil {
				panic("dial: randomness source failed: " + err.Error())
			}
		}
		dst = dst[n:]
	}
}

// ScanBucket trial-decrypts every invitation in a downloaded bucket and
// returns those addressed to the recipient (§5.1: the client "tries to
// decrypt every invitation to find any that are meant for them").
func ScanBucket(bucket [][]byte, recipientPub *box.PublicKey, recipientPriv *box.PrivateKey) []*Invitation {
	key := box.NewDHKey(recipientPriv)
	var out []*Invitation
	for _, sealed := range bucket {
		if inv, ok := openInvitation(sealed, recipientPub, key); ok {
			out = append(out, inv)
		}
	}
	return out
}

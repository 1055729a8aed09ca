package box

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand/v2"
	"slices"
	"sync"
	"testing"

	"vuvuzela/internal/crypto/x25519"
)

// lowOrderPoints are the X25519 public keys whose shared secret is
// all-zero for every (clamped) private key: the points of order 1, 2, 4
// and 8 on the curve and its twist, in every encoding below 2^255.
var lowOrderPoints = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0100000000000000000000000000000000000000000000000000000000000000",
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
}

// TestPrecomputeRejectsLowOrderPeer: a peer key that forces the shared
// secret to zero — which any observer could compute — is refused with
// ErrKeyExchange by the parsed key and by every raw-key wrapper over it.
func TestPrecomputeRejectsLowOrderPeer(t *testing.T) {
	pub, priv := mustKeyPair(t)
	key := NewDHKey(&priv)
	for _, h := range lowOrderPoints {
		var peer PublicKey
		copy(peer[:], fromHex(t, h))
		if _, err := key.Precompute(&peer); !errors.Is(err, ErrKeyExchange) {
			t.Errorf("peer %s: DHKey.Precompute: %v, want ErrKeyExchange", h, err)
		}
		if _, err := Precompute(&peer, &priv); !errors.Is(err, ErrKeyExchange) {
			t.Errorf("peer %s: Precompute: %v, want ErrKeyExchange", h, err)
		}
		if _, err := SealAnonymous([]byte("m"), &peer, nil); !errors.Is(err, ErrKeyExchange) {
			t.Errorf("peer %s: SealAnonymous: %v, want ErrKeyExchange", h, err)
		}
		// As the ephemeral key of an anonymous box addressed to us.
		ct := append(append([]byte(nil), peer[:]...), make([]byte, Overhead+1)...)
		if _, err := key.OpenAnonymous(ct, &pub); !errors.Is(err, ErrKeyExchange) {
			t.Errorf("peer %s: DHKey.OpenAnonymous: %v, want ErrKeyExchange", h, err)
		}
		// As a parsed Peer: −1 (ecff…7f) is a twist point, which NewPeer
		// refuses; every other one parses and fails the agreement.
		p, err := NewPeer(&peer)
		if twist := h[:2] == "ec"; (err != nil) != twist {
			t.Errorf("peer %s: NewPeer: %v, want an error %v", h, err, twist)
		}
		if err != nil {
			continue
		}
		a := []Agreement{{Key: priv}}
		if err := Agree(a, []*Peer{p}); !errors.Is(err, ErrKeyExchange) || a[0].Key != ([KeySize]byte{}) {
			t.Errorf("peer %s: Agree: %v, want ErrKeyExchange and a zeroed key", h, err)
		}
	}
}

// TestDHKeyShared: a chain server's round workers all unwrap with the one
// parsed key, so concurrent use must be safe (run under -race) and give
// every goroutine the same answers as the raw-key path.
func TestDHKeyShared(t *testing.T) {
	rPub, rPriv := mustKeyPair(t)
	key := NewDHKey(&rPriv)
	peerPub, _ := mustKeyPair(t)
	want, err := Precompute(&peerPub, &rPriv)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("sealed to the shared key's owner")
	sealed, err := SealAnonymous(msg, &rPub, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, err := key.Precompute(&peerPub)
				if err != nil || *got != *want {
					t.Errorf("shared key: precompute %v", err)
					return
				}
				pt, err := key.OpenAnonymous(sealed, &rPub)
				if err != nil || !bytes.Equal(pt, msg) || key.Public() != rPub {
					t.Errorf("shared key: open anonymous %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestPeerShared: a mixing server's pool refills agree with one parsed
// Peer per downstream key from several goroutines, so concurrent use must
// be safe (go test -race -count=10) and every agreement must open with the
// server's key.
func TestPeerShared(t *testing.T) {
	sPub, sPriv := mustKeyPair(t)
	server := NewDHKey(&sPriv)
	peer, err := NewPeer(&sPub)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				a := []Agreement{{}}
				rand.Read(a[0].Key[:])
				if err := Agree(a, []*Peer{peer}); err != nil {
					t.Errorf("Agree: %v", err)
					return
				}
				want, err := server.Precompute(&a[0].Public)
				if err != nil || *want != a[0].Key {
					t.Errorf("the server derives another key from %x: %v", a[0].Public, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// countedStream is a seeded ChaCha8 stream that counts the bytes read.
type countedStream struct {
	src *mrand.ChaCha8
	n   int
}

func (r *countedStream) Read(p []byte) (int, error) {
	r.n += len(p)
	return r.src.Read(p)
}

// TestGenerateDHKeySeeded: a key drawn from a seeded stream is a function
// of the stream alone — one KeySize-byte read and nothing else — so two
// identical streams give identical keys, which is what makes a seeded
// benchmark's onions the same bytes on every run.
func TestGenerateDHKeySeeded(t *testing.T) {
	const keys = 64
	a := &countedStream{src: mrand.NewChaCha8([32]byte{'s', 'e', 'e', 'd'})}
	b := &countedStream{src: mrand.NewChaCha8([32]byte{'s', 'e', 'e', 'd'})}
	for i := 0; i < keys; i++ {
		ka, err := GenerateDHKey(a)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := GenerateDHKey(b)
		if err != nil {
			t.Fatal(err)
		}
		if ka.Public() != kb.Public() {
			t.Fatalf("key %d differs between two identical streams", i)
		}
	}
	if a.n != keys*KeySize || b.n != keys*KeySize {
		t.Fatalf("%d keys read %d and %d bytes, want %d", keys, a.n, b.n, keys*KeySize)
	}
}

// TestBatchMatchesSingle holds both batched exchanges to their batches of
// one, with hostile keys in the batch: PrecomputeBatch (the ladder, one
// private key against up to MaxBatch onions' ephemeral keys) and Agree
// (the comb, up to MaxBatch/2 agreements of two mults each). A low-order
// or zero key fails its own element with ErrKeyExchange wherever it sits
// and changes no other element's key. The ladder runs both its paths.
func TestBatchMatchesSingle(t *testing.T) { ladderPaths(t, batchMatchesSingle) }

func batchMatchesSingle(t *testing.T) {
	_, priv := mustKeyPair(t)
	key := NewDHKey(&priv)
	var bad []PublicKey
	for _, h := range lowOrderPoints {
		if h[:2] != "ec" { // a twist point, which NewPeer refuses
			bad = append(bad, PublicKey(fromHex(t, h)))
		}
	}
	all := make([]int, MaxBatch)
	for i := range all {
		all[i] = i
	}
	for _, row := range []struct {
		n   int
		bad []int
	}{
		{1, nil}, {2, nil}, {15, nil}, {16, nil},
		{1, []int{0}}, {2, []int{0}}, {15, []int{0, 7}}, {16, []int{0, 7, 15}}, {16, all},
	} {
		t.Run(fmt.Sprintf("n=%d/bad=%v", row.n, row.bad), func(t *testing.T) {
			peers := make([]PublicKey, row.n)
			for i := range peers {
				peers[i], _ = mustKeyPair(t)
			}
			isBad := make([]bool, row.n)
			for j, i := range row.bad {
				peers[i], isBad[i] = bad[j%len(bad)], true
			}

			shared := make([][KeySize]byte, row.n)
			ptrs := make([]*PublicKey, row.n)
			for i := range peers {
				ptrs[i] = &peers[i]
			}
			errs := make([]error, row.n)
			key.PrecomputeBatch(shared, ptrs, errs)
			for i := range peers {
				var want [KeySize]byte
				wantErr := key.PrecomputeInto(&want, &peers[i])
				if isBad[i] != errors.Is(errs[i], ErrKeyExchange) || (wantErr == nil) != (errs[i] == nil) {
					t.Fatalf("PrecomputeBatch element %d: %v, alone %v, bad %v", i, errs[i], wantErr, isBad[i])
				}
				if errs[i] == nil && shared[i] != want {
					t.Fatalf("PrecomputeBatch element %d differs from the key agreed alone", i)
				}
			}

			parsed, err := NewPeers(peers)
			if err != nil {
				t.Fatal(err)
			}
			a := make([]Agreement, row.n)
			for i := range a {
				rand.Read(a[i].Key[:])
			}
			scalars := slices.Clone(a)
			err = Agree(a, parsed)
			if (err != nil) != (len(row.bad) > 0) || (err != nil && !errors.Is(err, ErrKeyExchange)) {
				t.Fatalf("Agree: %v, with %d bad keys", err, len(row.bad))
			}
			for i := range a {
				one := []Agreement{scalars[i]}
				oneErr := Agree(one, parsed[i:i+1])
				if a[i] != one[0] || isBad[i] != (oneErr != nil) {
					t.Fatalf("Agree element %d differs from the agreement alone (%v), bad %v", i, oneErr, isBad[i])
				}
			}
		})
	}
}

// ladderPaths runs f on x25519.Ladder's IFMA kernel (on a CPU without
// one, an "ifma" row skips, naming what the CPU lacks) and again as
// "scalar", on the scalar code, forced.
func ladderPaths(t *testing.T, f func(t *testing.T)) {
	if x25519.IFMA {
		f(t)
	} else {
		t.Run("ifma", func(t *testing.T) { t.Skip("no IFMA kernel: " + x25519.WhyNoIFMA) })
	}
	t.Run("scalar", func(t *testing.T) {
		saved := x25519.IFMA
		defer func() { x25519.IFMA = saved }()
		x25519.IFMA = false
		f(t)
	})
}

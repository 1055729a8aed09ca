package box

import (
	"bytes"
	"errors"
	"sync"
	"testing"
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
	key, err := NewDHKey(&priv)
	if err != nil {
		t.Fatal(err)
	}
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
		var shared [KeySize]byte
		if _, err := p.Agree(&shared, nil); !errors.Is(err, ErrKeyExchange) || shared != ([KeySize]byte{}) {
			t.Errorf("peer %s: Peer.Agree: %v, want ErrKeyExchange and a zeroed key", h, err)
		}
	}
}

// TestDHKeyShared: a chain server's round workers all unwrap with the one
// parsed key, so concurrent use must be safe (run under -race) and give
// every goroutine the same answers as the raw-key path.
func TestDHKeyShared(t *testing.T) {
	rPub, rPriv := mustKeyPair(t)
	key, err := NewDHKey(&rPriv)
	if err != nil {
		t.Fatal(err)
	}
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
	server, err := NewDHKey(&sPriv)
	if err != nil {
		t.Fatal(err)
	}
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
				var shared [KeySize]byte
				epub, err := peer.Agree(&shared, nil)
				if err != nil {
					t.Errorf("Agree: %v", err)
					return
				}
				want, err := server.Precompute(&epub)
				if err != nil || *want != shared {
					t.Errorf("the server derives another key from %x: %v", epub, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

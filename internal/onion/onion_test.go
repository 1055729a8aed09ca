package onion

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"

	"vuvuzela/internal/crypto/box"
)

// testChain generates a chain of n server key pairs.
func testChain(t testing.TB, n int) ([]box.PublicKey, []box.PrivateKey) {
	t.Helper()
	pubs := make([]box.PublicKey, n)
	privs := make([]box.PrivateKey, n)
	for i := 0; i < n; i++ {
		pub, priv, err := box.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		pubs[i], privs[i] = pub, priv
	}
	return pubs, privs
}

// testPeers parses pubs as NewPath takes them.
func testPeers(t testing.TB, pubs []box.PublicKey) []*box.Peer {
	t.Helper()
	peers, err := box.NewPeers(pubs)
	if err != nil {
		t.Fatal(err)
	}
	return peers
}

// TestWrapUnwrapFullChain walks an onion through chains of length 1..6 (the
// range evaluated in Figure 11) and the reply back out.
func TestWrapUnwrapFullChain(t *testing.T) {
	for n := 1; n <= 6; n++ {
		pubs, privs := testChain(t, n)
		payload := []byte("exchange request: dead drop + sealed message")
		const round = 77

		wire, keys, err := Wrap(payload, round, 0, pubs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) != Size(len(payload), n) {
			t.Fatalf("chain %d: onion size %d, want %d", n, len(wire), Size(len(payload), n))
		}

		// Forward pass: each server unwraps its layer.
		serverKeys := make([]*[box.KeySize]byte, n)
		cur := wire
		for i := 0; i < n; i++ {
			inner, sk, err := UnwrapLayer(cur, &privs[i], round, i)
			if err != nil {
				t.Fatalf("chain %d server %d: %v", n, i, err)
			}
			serverKeys[i] = sk
			cur = inner
		}
		if !bytes.Equal(cur, payload) {
			t.Fatalf("chain %d: innermost payload mismatch", n)
		}

		// Return pass: last server seals first, back down the chain.
		reply := []byte("the partner's sealed message")
		ct := reply
		for i := n - 1; i >= 0; i-- {
			ct = SealReply(ct, serverKeys[i], round, i)
		}
		if len(ct) != ReplySize(len(reply), n) {
			t.Fatalf("chain %d: reply size %d, want %d", n, len(ct), ReplySize(len(reply), n))
		}
		got, err := UnwrapReply(ct, round, 0, keys)
		if err != nil {
			t.Fatalf("chain %d: unwrap reply: %v", n, err)
		}
		if !bytes.Equal(got, reply) {
			t.Fatalf("chain %d: reply mismatch", n)
		}
	}
}

// TestNoiseSuffixWrap verifies a mixing server can wrap noise for the
// remaining chain suffix and downstream servers unwrap it exactly like a
// client onion (the indistinguishability requirement of Alg. 2 step 2).
func TestNoiseSuffixWrap(t *testing.T) {
	pubs, privs := testChain(t, 3)
	const round = 9

	// Server 0 generates noise for servers 1..2.
	payload := make([]byte, 48)
	rand.Read(payload)
	wire, _, err := Wrap(payload, round, 1, pubs[1:], nil)
	if err != nil {
		t.Fatal(err)
	}

	inner, _, err := UnwrapLayer(wire, &privs[1], round, 1)
	if err != nil {
		t.Fatalf("server 1: %v", err)
	}
	got, _, err := UnwrapLayer(inner, &privs[2], round, 2)
	if err != nil {
		t.Fatalf("server 2: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("noise payload mismatch")
	}
}

// TestWrongRoundRejected: an onion for round r must not open in round r+1
// (prevents replay across rounds — dead drops are ephemeral, §3.1).
func TestWrongRoundRejected(t *testing.T) {
	pubs, privs := testChain(t, 2)
	wire, _, err := Wrap([]byte("payload"), 5, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnwrapLayer(wire, &privs[0], 6, 0); err == nil {
		t.Fatal("onion for round 5 opened in round 6")
	}
}

// TestWrongLayerRejected: server 1 cannot open server 0's layer.
func TestWrongLayerRejected(t *testing.T) {
	pubs, privs := testChain(t, 2)
	wire, _, err := Wrap([]byte("payload"), 5, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := UnwrapLayer(wire, &privs[1], 5, 1); err == nil {
		t.Fatal("server 1 opened layer 0")
	}
	if _, _, err := UnwrapLayer(wire, &privs[1], 5, 0); err == nil {
		t.Fatal("wrong key opened layer 0")
	}
}

// TestTamperedOnionRejected flips bits across the onion.
func TestTamperedOnionRejected(t *testing.T) {
	pubs, privs := testChain(t, 3)
	wire, _, err := Wrap([]byte("payload"), 1, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, box.KeySize, box.KeySize + 5, len(wire) - 1} {
		bad := append([]byte(nil), wire...)
		bad[i] ^= 0x40
		inner, _, err := UnwrapLayer(bad, &privs[0], 1, 0)
		if err == nil {
			// Flipping a byte of the ephemeral key changes the DH secret;
			// the box open must fail. Flipping ciphertext must fail auth.
			t.Fatalf("tamper at byte %d accepted (inner len %d)", i, len(inner))
		}
	}
}

func TestTooShortOnion(t *testing.T) {
	_, privs := testChain(t, 1)
	if _, _, err := UnwrapLayer(make([]byte, LayerOverhead-1), &privs[0], 0, 0); err != ErrTooShort {
		t.Fatalf("want ErrTooShort, got %v", err)
	}
}

// TestReplyTamperRejected verifies the reply path authenticates.
func TestReplyTamperRejected(t *testing.T) {
	pubs, privs := testChain(t, 1)
	wire, keys, err := Wrap([]byte("x"), 3, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, sk, err := UnwrapLayer(wire, &privs[0], 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	ct := SealReply([]byte("reply"), sk, 3, 0)
	ct[0] ^= 1
	if _, err := UnwrapReply(ct, 3, 0, keys); err == nil {
		t.Fatal("tampered reply accepted")
	}
}

// TestOnionsIndistinguishableSize: all onions for the same payload length
// have identical wire length regardless of content — a requirement for
// hiding which users are active (§4.1).
func TestOnionsIndistinguishableSize(t *testing.T) {
	pubs, _ := testChain(t, 3)
	sizes := map[int]bool{}
	for trial := 0; trial < 10; trial++ {
		payload := make([]byte, 272)
		rand.Read(payload)
		wire, _, err := Wrap(payload, uint64(trial), 0, pubs, nil)
		if err != nil {
			t.Fatal(err)
		}
		sizes[len(wire)] = true
	}
	if len(sizes) != 1 {
		t.Fatalf("onion sizes vary: %v", sizes)
	}
}

// TestWrapQuick is a property test: roundtrip through a 3-server chain for
// arbitrary payloads and rounds.
func TestWrapQuick(t *testing.T) {
	pubs, privs := testChain(t, 3)
	f := func(payload []byte, round uint64) bool {
		wire, keys, err := Wrap(payload, round, 0, pubs, nil)
		if err != nil {
			return false
		}
		cur := wire
		var serverKeys []*[box.KeySize]byte
		for i := 0; i < 3; i++ {
			inner, sk, err := UnwrapLayer(cur, &privs[i], round, i)
			if err != nil {
				return false
			}
			serverKeys = append(serverKeys, sk)
			cur = inner
		}
		if !bytes.Equal(cur, payload) {
			return false
		}
		ct := append([]byte(nil), cur...)
		for i := 2; i >= 0; i-- {
			ct = SealReply(ct, serverKeys[i], round, i)
		}
		got, err := UnwrapReply(ct, round, 0, keys)
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWrap3Servers(b *testing.B) {
	pubs, _ := testChain(b, 3)
	payload := make([]byte, 272)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Wrap(payload, uint64(i), 0, pubs, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnwrapLayer(b *testing.B) {
	pubs, privs := testChain(b, 1)
	payload := make([]byte, 272)
	wire, _, err := Wrap(payload, 1, 0, pubs, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := UnwrapLayer(wire, &privs[0], 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

package onion

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// layeredWrap is the reference Path.Seal is held to: the textbook
// construction, a fresh buffer and a plain box.Seal per layer, drawing
// its ephemeral keys from rng in NewPath's order.
func layeredWrap(t *testing.T, payload []byte, round uint64, startLayer int, pubs []box.PublicKey, rng *countingReader) []byte {
	t.Helper()
	onion := payload
	for i := len(pubs) - 1; i >= 0; i-- {
		var esk box.PrivateKey
		rng.Read(esk[:])
		epub := box.PublicKeyOf(&esk)
		shared, err := box.Precompute(&pubs[i], &esk)
		if err != nil {
			t.Fatal(err)
		}
		nonce := requestNonce(round, startLayer+i)
		onion = append(epub[:], box.Seal(onion, &nonce, shared)...)
	}
	return onion
}

// TestPathSealMatchesWrap holds the two halves of Wrap to Wrap itself and
// to the layer-by-layer reference, byte for byte under one seeded stream:
// 1–3 layers, and payload lengths on both sides of the 32-byte boundary
// where the in-place seal switches from keystream block 0 to the stream.
// Every layer then unwraps, and the keys Wrap returns open the reply.
func TestPathSealMatchesWrap(t *testing.T) {
	pubs, privs := testChain(t, 3)
	peers := testPeers(t, pubs)
	const round = 41
	const requestSize = 272 // convo.RequestSize, which imports this package
	for layers := 1; layers <= 3; layers++ {
		start := 3 - layers
		for _, n := range []int{0, 1, 32, 33, requestSize} {
			t.Run(fmt.Sprintf("layers=%d/payload=%d", layers, n), func(t *testing.T) {
				payload := make([]byte, n)
				for i := range payload {
					payload[i] = byte(i + 1)
				}
				want := layeredWrap(t, payload, round, start, pubs[start:], &countingReader{})
				wrapped, keys, err := Wrap(payload, round, start, pubs[start:], &countingReader{})
				if err != nil {
					t.Fatal(err)
				}
				rng := &countingReader{}
				path, err := NewPath(peers[start:], rng)
				if err != nil {
					t.Fatal(err)
				}
				if len(rng.reads) != layers || slices.ContainsFunc(rng.reads, func(n int) bool { return n != box.KeySize }) {
					t.Fatalf("NewPath read %v from its source, want %d reads of %d bytes", rng.reads, layers, box.KeySize)
				}
				for i, k := range path.Keys() {
					if *k != *keys[i] {
						t.Fatalf("layer %d: NewPath and Wrap agree different keys", start+i)
					}
				}
				sealed := path.Seal(payload, round, start)
				if !bytes.Equal(wrapped, want) || !bytes.Equal(sealed, want) {
					t.Fatalf("onion bytes differ:\n  Wrap %x\n  Seal %x\n  want %x", wrapped, sealed, want)
				}
				if len(sealed) != Size(n, layers) {
					t.Fatalf("onion is %d bytes, want %d", len(sealed), Size(n, layers))
				}

				cur, reply := sealed, []byte("reply")
				serverKeys := make([]*[box.KeySize]byte, layers)
				for i := 0; i < layers; i++ {
					cur, serverKeys[i], err = UnwrapLayer(cur, &privs[start+i], round, start+i)
					if err != nil {
						t.Fatalf("layer %d: %v", start+i, err)
					}
				}
				if !bytes.Equal(cur, payload) {
					t.Fatal("innermost payload mismatch")
				}
				for i := layers - 1; i >= 0; i-- {
					reply = SealReply(reply, serverKeys[i], round, start+i)
				}
				got, err := UnwrapReply(reply, round, start, keys)
				if err != nil || string(got) != "reply" {
					t.Fatalf("reply under Wrap's keys: %q, %v", got, err)
				}
			})
		}
	}
}

// TestNewPathRejectsBadKey: a low-order server key parses (box.NewPeer
// refuses only twist points) and fails the agreement, as it does inside
// Wrap.
func TestNewPathRejectsBadKey(t *testing.T) {
	pubs, _ := testChain(t, 2)
	pubs[1] = box.PublicKey{}
	if _, err := NewPath(testPeers(t, pubs), nil); err == nil {
		t.Fatal("NewPath agreed a key with the all-zero public key")
	}
	if _, _, err := Wrap([]byte("x"), 1, 0, pubs, nil); err == nil {
		t.Fatal("Wrap agreed a key with the all-zero public key")
	}
}

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

// TestNewPaths: paths agreed in chunks — counts on both sides of a
// chunk's edge — are NewPath's in all but the reads: each seals an onion
// every layer unwraps, the reply opens under its keys, no ephemeral key
// repeats, and a low-order server key fails the lot. Wipe then zeroes a
// path's keys.
func TestNewPaths(t *testing.T) {
	pubs, privs := testChain(t, 3)
	peers := testPeers(t, pubs)
	const round = 7
	seen := make(map[box.PublicKey]bool)
	for _, n := range []int{0, 1, PathChunk - 1, PathChunk, PathChunk + 1, 2*PathChunk + 3} {
		paths := make([]Path, n)
		if err := NewPaths(paths, peers[1:]); err != nil {
			t.Fatal(err)
		}
		for i, path := range paths {
			o := path.Seal([]byte("noise"), round, 1)
			keys := make([]*[box.KeySize]byte, 2)
			for layer := 1; layer < 3; layer++ {
				epub := box.PublicKey(o[:box.KeySize])
				if seen[epub] {
					t.Fatalf("n=%d: path %d repeats an ephemeral key", n, i)
				}
				seen[epub] = true
				var err error
				if o, keys[layer-1], err = UnwrapLayer(o, &privs[layer], round, layer); err != nil {
					t.Fatalf("n=%d: path %d, layer %d: %v", n, i, layer, err)
				}
			}
			if string(o) != "noise" {
				t.Fatalf("n=%d: path %d carried %q", n, i, o)
			}
			reply := SealReply(SealReply([]byte("r"), keys[1], round, 2), keys[0], round, 1)
			if got, err := UnwrapReply(reply, round, 1, path.Keys()); err != nil || string(got) != "r" {
				t.Fatalf("n=%d: path %d's reply: %q, %v", n, i, got, err)
			}
			path.Wipe()
			for _, k := range path.Keys() {
				if *k != [box.KeySize]byte{} {
					t.Fatalf("n=%d: path %d keeps a key after Wipe", n, i)
				}
			}
		}
	}

	pubs[2] = box.PublicKey{}
	if err := NewPaths(make([]Path, PathChunk+1), testPeers(t, pubs[1:])); err == nil {
		t.Fatal("NewPaths agreed keys with the all-zero public key")
	}
}

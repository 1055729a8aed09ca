package onion

import (
	"bytes"
	"errors"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// FuzzUnwrapLayer holds the server-side entry points against each other
// on arbitrary onion bytes: UnwrapInPlace (what a chain server runs, in
// the frame it received), Unwrap on a copy with the key parsed once and
// the raw-key UnwrapLayer must return the same payload and reply key or
// the same error, must never accept bytes that Wrap did not produce for
// this key, round and layer, and must leave a refused onion as it was.
func FuzzUnwrapLayer(f *testing.F) {
	pub, priv := box.KeyPairFromSeed([]byte("fuzz-unwrap-server"))
	key := box.NewDHKey(&priv)
	const round, layer = 5, 1
	// A fixed reader: fuzz workers are separate processes and must all
	// build the same valid onion.
	valid, _, err := Wrap([]byte("fuzz payload"), round, layer, []box.PublicKey{pub}, &countingReader{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint64(round), uint8(layer))
	f.Add(valid, uint64(round+1), uint8(layer))
	f.Add(valid[:LayerOverhead-1], uint64(round), uint8(layer))
	// An all-zero (low-order) ephemeral key: the key exchange itself fails.
	f.Add(make([]byte, LayerOverhead+8), uint64(round), uint8(layer))

	f.Fuzz(func(t *testing.T, onion []byte, r uint64, l uint8) {
		in1, k1, err1 := Unwrap(onion, key, r, int(l))
		in2, k2, err2 := UnwrapLayer(onion, &priv, r, int(l))
		if !errors.Is(err1, err2) || !errors.Is(err2, err1) {
			t.Fatalf("parsed key: %v; raw key: %v", err1, err2)
		}
		// The in-place path under both: same verdict, the same bytes where
		// it accepts, and not one byte written where it refuses.
		buf := bytes.Clone(onion)
		var k3 [box.KeySize]byte
		in3, err3 := UnwrapInPlace(buf, key, &k3, r, int(l))
		if !errors.Is(err3, err1) || !errors.Is(err1, err3) {
			t.Fatalf("in place: %v; on a copy: %v", err3, err1)
		}
		if err3 != nil && !bytes.Equal(buf, onion) {
			t.Fatal("a refused onion was modified in place")
		}
		if err3 == nil && (!bytes.Equal(in3, in1) || k3 != *k1) {
			t.Fatal("in-place and copying unwrap disagree")
		}
		if err1 != nil {
			if !errors.Is(err1, ErrTooShort) && !errors.Is(err1, ErrDecrypt) {
				t.Fatalf("unclassified error %v", err1)
			}
			if in1 != nil || k1 != nil || in2 != nil || k2 != nil {
				t.Fatal("a failed unwrap returned data")
			}
			return
		}
		if !bytes.Equal(in1, in2) || *k1 != *k2 {
			t.Fatal("parsed and raw key unwrap the same onion differently")
		}
		if !bytes.Equal(onion, valid) || r != round || l != layer {
			t.Fatalf("accepted a forged onion (round %d, layer %d)", r, l)
		}
	})
}

// FuzzPathSeal seals arbitrary payloads along 1–3 layer paths at
// arbitrary rounds and chain positions: every layer must unwrap under the
// round and position it was sealed for and the payload must come back
// intact, whatever its length relative to the in-place seal's 32-byte
// first block.
func FuzzPathSeal(f *testing.F) {
	var pubs [3]box.PublicKey
	var keys [3]*box.DHKey
	for i := range pubs {
		pub, priv := box.KeyPairFromSeed([]byte{'f', 'u', 'z', 'z', '-', 's', 'e', 'a', 'l', byte(i)})
		key := box.NewDHKey(&priv)
		pubs[i], keys[i] = pub, key
	}
	f.Add([]byte("fuzz payload"), uint8(3), uint64(5), uint8(0))
	f.Add([]byte{}, uint8(1), uint64(0), uint8(2))
	f.Add(make([]byte, 32), uint8(2), uint64(1<<63), uint8(1))
	f.Add(make([]byte, 33), uint8(2), uint64(7), uint8(254))

	peers := testPeers(f, pubs[:])
	f.Fuzz(func(t *testing.T, payload []byte, layers uint8, round uint64, startLayer uint8) {
		n := int(layers)%3 + 1
		start := int(startLayer)
		path, err := NewPath(peers[:n], nil)
		if err != nil {
			t.Fatal(err)
		}
		cur := path.Seal(payload, round, start)
		if len(cur) != Size(len(payload), n) {
			t.Fatalf("onion is %d bytes, want %d", len(cur), Size(len(payload), n))
		}
		for i := 0; i < n; i++ {
			if cur, _, err = Unwrap(cur, keys[i], round, start+i); err != nil {
				t.Fatalf("layer %d of %d: %v", i, n, err)
			}
		}
		if !bytes.Equal(cur, payload) {
			t.Fatal("payload did not survive the onion")
		}
	})
}

package onion

import (
	"bytes"
	"encoding/hex"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// countingReader is a fixed byte stream (byte i of it is i*7+3) that
// records the size of every read.
type countingReader struct {
	pos   int
	reads []int
}

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte((r.pos+i)*7 + 3)
	}
	r.pos += len(p)
	r.reads = append(r.reads, len(p))
	return len(p), nil
}

// goldenWrap is Wrap's output at the commit before onions were built
// from parsed ephemeral keys, for the inputs of TestWrapGolden.
const goldenWrap = "b50ead4a349b09d88fd61f4a1e6cc035c72bc74acaf948969dd4c335ff50b632" +
	"7e04189364f3c7182a185edd5e65f4729140629de5cfccee608b00b20461d96c" +
	"f702096807307fe581e8b9ffd3a64c5fc480fda062f4f16c6964c1d6c8cca8fb" +
	"aa3c8ad199d847363622aff7c78020e1878464a6f4f79cbfc2fea1f0cdf20261" +
	"4b2104f0b7c9ddb29653e50d7b7448090c6cccf580ab1a7c5d5d3603b008d172" +
	"1d67ed55"

// TestWrapGolden pins the onion wire format and Wrap's use of its
// randomness source: the same reader stream must give the same bytes,
// drawn as one 32-byte read per layer, innermost layer first.
func TestWrapGolden(t *testing.T) {
	pubs := make([]box.PublicKey, 3)
	privs := make([]box.PrivateKey, 3)
	for i := range pubs {
		pubs[i], privs[i] = box.KeyPairFromSeed([]byte{'g', 'o', 'l', 'd', byte(i)})
	}
	payload := []byte("golden onion payload")
	const round = 0x0102030405060708

	rng := &countingReader{}
	got, keys, err := Wrap(payload, round, 0, pubs, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != goldenWrap {
		t.Fatalf("onion bytes drifted:\n got %x\nwant %s", got, goldenWrap)
	}
	if len(rng.reads) != 3 || rng.reads[0] != 32 || rng.reads[1] != 32 || rng.reads[2] != 32 {
		t.Fatalf("Wrap read %v from its source, want three 32-byte reads", rng.reads)
	}
	// The comb path — what mixing servers and clients build — gives the
	// same bytes from the same stream.
	path, err := NewPath(testPeers(t, pubs), &countingReader{})
	if err != nil {
		t.Fatal(err)
	}
	if sealed := hex.EncodeToString(path.Seal(payload, round, 0)); sealed != goldenWrap {
		t.Fatalf("NewPath + Seal drifted:\n got %s\nwant %s", sealed, goldenWrap)
	}

	// The first read keys the innermost layer: the outermost layer's
	// ephemeral public key is that of the third 32 bytes of the stream.
	var last box.PrivateKey
	(&countingReader{pos: 64}).Read(last[:])
	outer := box.PublicKeyOf(&last)
	if !bytes.Equal(got[:box.KeySize], outer[:]) {
		t.Fatal("outermost layer is not keyed by the last read")
	}

	// And the pinned bytes still mean what they say.
	cur := got
	for i := range privs {
		inner, k, err := UnwrapLayer(cur, &privs[i], round, i)
		if err != nil {
			t.Fatalf("layer %d: %v", i, err)
		}
		if *k != *keys[i] {
			t.Fatalf("layer %d: server and client derive different keys", i)
		}
		cur = inner
	}
	if !bytes.Equal(cur, payload) {
		t.Fatal("innermost payload mismatch")
	}
}

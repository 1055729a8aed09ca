package onion

import (
	"bytes"
	"errors"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// TestUnwrapInPlace: the in-place path yields the inner onion as a view of
// the onion it was handed and the same reply key as the copying Unwrap,
// layer after layer, down to the payload.
func TestUnwrapInPlace(t *testing.T) {
	pubs, privs := testChain(t, 3)
	payload := []byte("in place, all the way down")
	wire, keys, err := Wrap(payload, 4, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Clone(wire)
	cur := buf
	for layer := range privs {
		key := box.NewDHKey(&privs[layer])
		var shared [box.KeySize]byte
		inner, err := UnwrapInPlace(cur, key, &shared, 4, layer)
		if err != nil {
			t.Fatalf("layer %d: %v", layer, err)
		}
		if shared != *keys[layer] {
			t.Fatalf("layer %d: reply key differs from the one Wrap agreed", layer)
		}
		if &inner[0] != &cur[LayerOverhead] || len(inner) != len(cur)-LayerOverhead {
			t.Fatalf("layer %d: inner onion is not the onion's own tail", layer)
		}
		cur = inner
	}
	if !bytes.Equal(cur, payload) {
		t.Fatalf("innermost %q, want %q", cur, payload)
	}
}

// TestFailedUnwrapLeavesOnionUntouched: nothing is written into an onion
// unless its layer authenticates — a server unwraps in the frame it
// received, and a forged onion must not come out of the attempt changed.
func TestFailedUnwrapLeavesOnionUntouched(t *testing.T) {
	pubs, privs := testChain(t, 2)
	key := box.NewDHKey(&privs[0])
	wire, _, err := Wrap(make([]byte, 272), 7, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		onion        []byte
		round, layer int
	}{
		"tag flipped":           {flip(wire, box.KeySize), 7, 0},
		"body flipped":          {flip(wire, len(wire)-1), 7, 0},
		"ephemeral key swapped": {flip(wire, 3), 7, 0},
		"wrong round":           {bytes.Clone(wire), 8, 0},
		"wrong layer":           {bytes.Clone(wire), 7, 1},
		"low-order key":         {make([]byte, len(wire)), 7, 0},
		"too short":             {bytes.Clone(wire[:LayerOverhead-1]), 7, 0},
	}
	for name, tc := range cases {
		before := bytes.Clone(tc.onion)
		var shared [box.KeySize]byte
		inner, err := UnwrapInPlace(tc.onion, key, &shared, uint64(tc.round), tc.layer)
		if err == nil || inner != nil {
			t.Fatalf("%s: accepted", name)
		}
		if !errors.Is(err, ErrDecrypt) && !errors.Is(err, ErrTooShort) {
			t.Fatalf("%s: unclassified error %v", name, err)
		}
		if !bytes.Equal(tc.onion, before) {
			t.Fatalf("%s: the failed attempt modified the onion", name)
		}
	}
}

func flip(b []byte, i int) []byte {
	out := bytes.Clone(b)
	out[i] ^= 0x40
	return out
}

// TestCopyingEntryPointsLeaveInput: Unwrap, UnwrapLayer and UnwrapReply
// are called repeatedly on the same bytes (replays, benchmarks, the
// evaluation harness); each works on a copy, so a second call sees what
// the first saw.
func TestCopyingEntryPointsLeaveInput(t *testing.T) {
	pubs, privs := testChain(t, 3)
	key := box.NewDHKey(&privs[0])
	wire, keys, err := Wrap([]byte("twice"), 2, 0, pubs, nil)
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(wire)
	in1, k1, err := Unwrap(wire, key, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	in2, k2, err := UnwrapLayer(wire, &privs[0], 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, orig) {
		t.Fatal("Unwrap modified the caller's onion")
	}
	if !bytes.Equal(in1, in2) || *k1 != *k2 || k1 == k2 || &in1[0] == &in2[0] {
		t.Fatal("two unwraps of one onion disagree or share storage")
	}

	reply := []byte("a reply of some length")
	for layer := len(keys) - 1; layer >= 0; layer-- {
		reply = SealReply(reply, keys[layer], 2, layer)
	}
	sealed := bytes.Clone(reply)
	for i := 0; i < 2; i++ {
		got, err := UnwrapReply(reply, 2, 0, keys)
		if err != nil || string(got) != "a reply of some length" {
			t.Fatalf("pass %d: %q, %v", i, got, err)
		}
		if !bytes.Equal(reply, sealed) {
			t.Fatal("UnwrapReply modified the caller's reply")
		}
	}
	// A tampered reply, or one too short for its layers, is refused whole.
	bad := flip(reply, len(reply)-1)
	if got, err := UnwrapReply(bad, 2, 0, keys); !errors.Is(err, ErrDecrypt) || got != nil {
		t.Fatalf("tampered reply: %q, %v", got, err)
	}
	if got, err := UnwrapReply(reply[:ReplyOverhead*3-1], 2, 0, keys); !errors.Is(err, ErrDecrypt) || got != nil {
		t.Fatalf("short reply: %q, %v", got, err)
	}
}

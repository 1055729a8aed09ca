package box

import (
	"bytes"
	"errors"
	"testing"
)

// TestOpenInto verifies the zero-copy OpenInto path agrees with Open,
// including the documented in-place mode (out exactly overlapping
// ct[Overhead:]).
func TestOpenInto(t *testing.T) { salsaPaths(t, openInto) }

func openInto(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	copy(key[:], bytes.Repeat([]byte{7}, KeySize))
	copy(nonce[:], bytes.Repeat([]byte{9}, NonceSize))
	for _, n := range []int{0, 1, 31, 32, 33, 4096} {
		msg := bytes.Repeat([]byte{0xAB}, n)
		ct := Seal(msg, &nonce, &key)

		out := make([]byte, n)
		if err := OpenInto(out, ct, &nonce, &key); err != nil {
			t.Fatalf("OpenInto(%d bytes): %v", n, err)
		}
		if !bytes.Equal(out, msg) {
			t.Fatalf("OpenInto(%d bytes) disagrees with the sealed plaintext", n)
		}

		// In-place: decrypt into the ciphertext's own tail.
		ct2 := Seal(msg, &nonce, &key)
		if err := OpenInto(ct2[Overhead:], ct2, &nonce, &key); err != nil {
			t.Fatalf("in-place OpenInto(%d bytes): %v", n, err)
		}
		if !bytes.Equal(ct2[Overhead:], msg) {
			t.Fatalf("in-place OpenInto(%d bytes) corrupted the plaintext", n)
		}
	}
}

// TestOpenIntoRejectsCorrupt flips each byte of a box and checks
// OpenInto fails with ErrDecrypt while leaving the output buffer
// untouched (a reused record buffer must never hold forged bytes).
func TestOpenIntoRejectsCorrupt(t *testing.T) { salsaPaths(t, openIntoRejectsCorrupt) }

func openIntoRejectsCorrupt(t *testing.T) {
	var key [KeySize]byte
	var nonce [NonceSize]byte
	key[3] = 1
	msg := []byte("the packed onions of round 7")
	ct := Seal(msg, &nonce, &key)
	for i := range ct {
		mut := append([]byte(nil), ct...)
		mut[i] ^= 0x40
		out := bytes.Repeat([]byte{0x5A}, len(msg))
		if err := OpenInto(out, mut, &nonce, &key); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("corrupt byte %d: got %v, want ErrDecrypt", i, err)
		}
		if !bytes.Equal(out, bytes.Repeat([]byte{0x5A}, len(msg))) {
			t.Fatalf("corrupt byte %d: OpenInto wrote into out on failure", i)
		}
	}
	if err := OpenInto(nil, ct[:Overhead-1], &nonce, &key); !errors.Is(err, ErrDecrypt) {
		t.Fatal("short ciphertext accepted")
	}
}

// TestKeyedSuites checks the caller-buffer forms the record layer runs
// on — SealInto and OpenInto, both apart from and in place in the
// message's own buffer — against the allocating Seal/Open path
// byte-for-byte (so the fast path cannot drift from the wire layout), and
// rejects tampering. The subtest keeps the cipher's name.
func TestKeyedSuites(t *testing.T) {
	t.Run("xsalsa20poly1305", func(t *testing.T) {
		var key [KeySize]byte
		var nonce [NonceSize]byte
		copy(key[:], bytes.Repeat([]byte{3}, KeySize))
		nonce[0] = 1
		for _, n := range []int{0, 1, 32, 65, 1 << 12} {
			msg := bytes.Repeat([]byte{byte(n)}, n)
			want := Seal(msg, &nonce, &key)

			out := make([]byte, Overhead+n)
			SealInto(out, msg, &nonce, &key)
			if !bytes.Equal(out, want) {
				t.Fatalf("SealInto(%d bytes) disagrees with Seal", n)
			}

			// In place: the message staged behind the tag slot.
			rec := make([]byte, Overhead+n)
			copy(rec[Overhead:], msg)
			SealInto(rec, rec[Overhead:], &nonce, &key)
			if !bytes.Equal(rec, want) {
				t.Fatalf("in-place SealInto(%d bytes) disagrees with Seal", n)
			}

			pt := make([]byte, n)
			if err := OpenInto(pt, append([]byte(nil), want...), &nonce, &key); err != nil {
				t.Fatalf("OpenInto(%d bytes): %v", n, err)
			}
			if !bytes.Equal(pt, msg) {
				t.Fatalf("OpenInto(%d bytes) disagrees with the plaintext", n)
			}

			mut := append([]byte(nil), want...)
			mut[n/2] ^= 1
			if err := OpenInto(pt, mut, &nonce, &key); !errors.Is(err, ErrDecrypt) {
				t.Fatalf("tampered box accepted: %v", err)
			}
		}
	})
}

// FuzzOpenInto mirrors the SealInto coverage for the opening direction:
// every seal round-trips through OpenInto, agrees with Open, and any
// single-byte corruption at a fuzzer-chosen offset is rejected by both.
func FuzzOpenInto(f *testing.F) {
	f.Add([]byte("seed message"), []byte("k"), []byte("n"), uint16(4), byte(1))
	f.Add([]byte{}, []byte{}, []byte{0xFF}, uint16(0), byte(0x80))
	f.Fuzz(func(t *testing.T, msg, keySeed, nonceSeed []byte, corrupt uint16, delta byte) {
		if len(msg) > 1<<16 {
			return
		}
		var key [KeySize]byte
		var nonce [NonceSize]byte
		copy(key[:], keySeed)
		copy(nonce[:], nonceSeed)

		ct := Seal(msg, &nonce, &key)
		out := make([]byte, len(msg))
		if err := OpenInto(out, ct, &nonce, &key); err != nil {
			t.Fatalf("sealed box failed OpenInto: %v", err)
		}
		if !bytes.Equal(out, msg) {
			t.Fatal("OpenInto round-trip corrupted the plaintext")
		}
		viaOpen, err := Open(ct, &nonce, &key)
		if err != nil || !bytes.Equal(viaOpen, out) {
			t.Fatalf("Open and OpenInto disagree: %v", err)
		}

		if delta == 0 || len(ct) == 0 {
			return
		}
		mut := append([]byte(nil), ct...)
		mut[int(corrupt)%len(mut)] ^= delta
		wantErr := OpenInto(out, mut, &nonce, &key)
		if !errors.Is(wantErr, ErrDecrypt) {
			t.Fatalf("corrupted box accepted by OpenInto: %v", wantErr)
		}
		if _, err := Open(mut, &nonce, &key); !errors.Is(err, ErrDecrypt) {
			t.Fatalf("corrupted box accepted by Open: %v", err)
		}
	})
}

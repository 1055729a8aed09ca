package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"

	"vuvuzela/internal/crypto/box"
)

// recordCipher is the record layer's one cipher (docs/WIRE.md §1.3); the
// tests of the sealed record path run as a subtest of this name.
const recordCipher = "xsalsa20poly1305"

// securePipeConns is securePipe returning the raw pipe ends under the
// two Secure ends, for tests that put their own bytes on the wire.
func securePipeConns(t *testing.T) (*Secure, *Secure, net.Conn, net.Conn) {
	t.Helper()
	cPub, cPriv := box.KeyPairFromSeed([]byte("secure-client"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("secure-server"))
	cc, sc := net.Pipe()
	t.Cleanup(func() { cc.Close(); sc.Close() })
	client := SecureClient(cc, cPriv, sPub)
	server := SecureServer(sc, sPriv, []box.PublicKey{cPub})
	return client, server, cc, sc
}

// TestSecureWriteAfterFailedRead is the regression test for the poisoned
// write path: after a Read fails authentication, a later Write on the
// same connection must return an ErrAuth-classed error — NOT succeed
// (sealing data into a connection under active attack) and NOT surface
// the alert path's short write deadline as a spurious timeout. The
// receiving peer's authenticated alert must likewise poison ITS write
// direction.
func TestSecureWriteAfterFailedRead(t *testing.T) {
	t.Run(recordCipher, func(t *testing.T) {
		client, server, cc, _ := securePipeConns(t)

		clientErr := make(chan error, 1)
		go func() {
			clientErr <- func() error {
				if err := client.Handshake(); err != nil {
					return err
				}
				// Inject one forged record: valid framing, garbage
				// ciphertext.
				forged := make([]byte, 4+1+box.Overhead)
				forged[3] = byte(1 + box.Overhead)
				if _, err := cc.Write(forged); err != nil {
					return err
				}
				// The server's alert arrives on the intact direction.
				if _, err := client.Read(make([]byte, 8)); !errors.Is(err, ErrAuth) {
					return fmt.Errorf("alert read: got %v, want ErrAuth", err)
				}
				// An authenticated alert poisons the receiver's write
				// direction too: the peer will never accept our records
				// again.
				if _, err := client.Write([]byte("x")); !errors.Is(err, ErrAuth) {
					return fmt.Errorf("write after received alert: got %v, want ErrAuth", err)
				}
				return nil
			}()
		}()

		if _, err := server.Read(make([]byte, 8)); !errors.Is(err, ErrAuth) {
			t.Fatalf("forged record: got %v, want ErrAuth", err)
		}
		_, werr := server.Write([]byte("must not be sealed"))
		if werr == nil {
			t.Fatal("Write succeeded after a failed Read — data sealed after a detected forgery")
		}
		if !errors.Is(werr, ErrAuth) {
			t.Fatalf("write after failed read: got %v, want ErrAuth", werr)
		}
		if errors.Is(werr, os.ErrDeadlineExceeded) {
			t.Fatalf("write after failed read surfaced the alert deadline: %v", werr)
		}
		if err := <-clientErr; err != nil {
			t.Fatalf("client: %v", err)
		}
	})
}

// TestSecureZeroLengthRead: Read with an empty buffer returns (0, nil)
// immediately per the io.Reader contract — it must not block on the
// handshake or pull (and drop bytes from) a record it cannot deliver.
func TestSecureZeroLengthRead(t *testing.T) {
	// No peer at all: a zero-length read must still return immediately.
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	_, cPriv := box.KeyPairFromSeed([]byte("secure-client"))
	sPub, _ := box.KeyPairFromSeed([]byte("secure-server"))
	lonely := SecureClient(cc, cPriv, sPub)
	if n, err := lonely.Read(nil); n != 0 || err != nil {
		t.Fatalf("zero-length read before handshake: (%d, %v), want (0, nil)", n, err)
	}

	// Established channel with a pending record: zero-length reads do not
	// consume anything.
	client, server, _, _ := securePipe(t)
	go client.Write([]byte("abc"))
	buf := make([]byte, 3)
	if _, err := io.ReadFull(server, buf[:1]); err != nil {
		t.Fatal(err)
	}
	if n, err := server.Read(buf[:0]); n != 0 || err != nil {
		t.Fatalf("zero-length read mid-stream: (%d, %v), want (0, nil)", n, err)
	}
	if _, err := io.ReadFull(server, buf[1:]); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Fatalf("zero-length read consumed data: got %q", buf)
	}
}

// TestSecureSuiteRoundtrip: a payload of three full records and a short
// fourth crosses intact.
func TestSecureSuiteRoundtrip(t *testing.T) {
	t.Run(recordCipher, func(t *testing.T) {
		client, server, _, _ := securePipe(t)
		payload := patterned(3*recordPlain + 77)
		errc := make(chan error, 1)
		go func() {
			_, err := client.Write(payload)
			errc <- err
		}()
		got := make([]byte, len(payload))
		if _, err := io.ReadFull(server, got); err != nil {
			t.Fatalf("server read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted")
		}
		if err := <-errc; err != nil {
			t.Fatalf("client write: %v", err)
		}
	})
}

// specRecord is a record writer built from docs/WIRE.md §1.3 alone, not
// from Secure's write path: len(4, BE) ‖ seal(type ‖ payload) under the
// session key and the implicit nonce direction ‖ BE counter ‖ zeros.
func specRecord(key *[box.KeySize]byte, dir byte, ctr uint64, typ byte, payload []byte) []byte {
	var nonce [box.NonceSize]byte
	nonce[0] = dir
	binary.BigEndian.PutUint64(nonce[1:9], ctr)
	ct := box.Seal(append([]byte{typ}, payload...), &nonce, key)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(ct))), ct...)
}

// specPipe completes a real handshake and returns the server end with a
// function that puts raw bytes on the client→server wire in the client's
// place (and drains whatever the server sends back, so its best-effort
// alert never waits out the deadline), plus the session key.
func specPipe(t *testing.T) (server *Secure, send func([]byte), key *[box.KeySize]byte) {
	t.Helper()
	client, server, cc, _ := securePipeConns(t)
	hs := make(chan error, 1)
	go func() { hs <- client.Handshake() }()
	if err := server.Handshake(); err != nil {
		t.Fatal(err)
	}
	if err := <-hs; err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, cc)
	return server, func(b []byte) { go cc.Write(b) }, &client.key
}

// patterned is n bytes that differ from their neighbours and from zero
// fill, so a shifted or dropped byte shows.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i * 13)
	}
	return b
}

// TestSecureRecordSizeInterop checks the reader against the spec, not
// against its own writer (docs/WIRE.md §1.3): the record size is the
// writer's choice, so a reader MUST accept every payload size from 1
// byte to the 2^20 cap — the 2^16-byte records of earlier writers
// included — and reject a length outside [17, 1048593] as ErrAuth.
func TestSecureRecordSizeInterop(t *testing.T) {
	for _, size := range []int{1, 1 << 16, maxRecordPlain} {
		t.Run(fmt.Sprintf("writer-%d", size), func(t *testing.T) {
			server, send, key := specPipe(t)
			payload := patterned(size)
			// A second record shows the stream stays in step after it.
			send(append(specRecord(key, dirClientToServer, 0, recData, payload),
				specRecord(key, dirClientToServer, 1, recData, []byte("next"))...))
			got := make([]byte, size+4)
			if _, err := io.ReadFull(server, got); err != nil {
				t.Fatalf("server read: %v", err)
			}
			if !bytes.Equal(got[:size], payload) || string(got[size:]) != "next" {
				t.Fatal("payload corrupted")
			}
		})
	}
	t.Run("oversized", func(t *testing.T) {
		server, send, key := specPipe(t)
		send(specRecord(key, dirClientToServer, 0, recData, patterned(maxRecordPlain+1)))
		if n, err := server.Read(make([]byte, 8)); n != 0 || !errors.Is(err, ErrAuth) {
			t.Fatalf("2^20+1-byte payload: got (%d, %v), want ErrAuth", n, err)
		}
	})
	t.Run("undersized", func(t *testing.T) {
		server, send, _ := specPipe(t)
		// len 16: a tag with no type byte behind it.
		send(append([]byte{0, 0, 0, box.Overhead}, make([]byte, box.Overhead)...))
		if n, err := server.Read(make([]byte, 8)); n != 0 || !errors.Is(err, ErrAuth) {
			t.Fatalf("len < 17 record: got (%d, %v), want ErrAuth", n, err)
		}
	})
}

// TestSecureOddSizedReads pins what opening a record in the buffer it was
// read into must not break: Read hands out a record's plaintext piece by
// piece while the next record waits on the wire, and a record that fails
// to open delivers nothing — not one byte of it reaches the caller.
func TestSecureOddSizedReads(t *testing.T) {
	// readPieces reads into got in pieces of 1, 7 and 4096 bytes, cycling,
	// until got is full or Read fails.
	readPieces := func(r io.Reader, got []byte) (int, error) {
		sizes := []int{1, 7, 4096}
		total := 0
		for i := 0; total < len(got); i++ {
			end := total + sizes[i%len(sizes)]
			if end > len(got) {
				end = len(got)
			}
			n, err := r.Read(got[total:end])
			total += n
			if err != nil {
				return total, err
			}
		}
		return total, nil
	}

	t.Run("intact", func(t *testing.T) {
		client, server, _, _ := securePipe(t)
		payload := patterned(2*recordPlain + 77) // three records
		errc := make(chan error, 1)
		go func() {
			_, err := client.Write(payload)
			errc <- err
		}()
		got := make([]byte, len(payload))
		if _, err := readPieces(server, got); err != nil {
			t.Fatalf("server read: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload corrupted")
		}
		if err := <-errc; err != nil {
			t.Fatalf("client write: %v", err)
		}
	})

	t.Run("tampered-second-record", func(t *testing.T) {
		server, send, key := specPipe(t)
		const recLen = 5000
		payload := patterned(3 * recLen)
		var stream []byte
		for i := 0; i < 3; i++ {
			stream = append(stream, specRecord(key, dirClientToServer, uint64(i), recData, payload[i*recLen:(i+1)*recLen])...)
		}
		second := 4 + box.Overhead + 1 + recLen
		stream[second+4+box.Overhead+1+recLen/2] ^= 1 // one bit, mid-payload
		send(stream)

		got := bytes.Repeat([]byte{0xEE}, len(payload))
		n, err := readPieces(server, got)
		if !errors.Is(err, ErrAuth) {
			t.Fatalf("tampered record: got %v, want ErrAuth", err)
		}
		if n != recLen || !bytes.Equal(got[:recLen], payload[:recLen]) {
			t.Fatalf("delivered %d bytes before the failure, want the first record's %d intact", n, recLen)
		}
		if !bytes.Equal(got[recLen:], bytes.Repeat([]byte{0xEE}, 2*recLen)) {
			t.Fatal("bytes of a rejected record reached the caller")
		}
		if n, err := server.Read(got[recLen:]); n != 0 || !errors.Is(err, ErrAuth) {
			t.Fatalf("read after the failure: got (%d, %v), want sticky ErrAuth", n, err)
		}
	})
}

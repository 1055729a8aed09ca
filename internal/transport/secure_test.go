package transport

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"vuvuzela/internal/crypto/box"
)

// securePipe returns a client/server Secure pair over an in-memory pipe,
// with deterministic long-term keys.
func securePipe(t *testing.T) (*Secure, *Secure, box.PublicKey, box.PublicKey) {
	t.Helper()
	cPub, cPriv := box.KeyPairFromSeed([]byte("secure-client"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("secure-server"))
	cc, sc := net.Pipe()
	t.Cleanup(func() { cc.Close(); sc.Close() })
	client := SecureClient(cc, cPriv, sPub)
	server := SecureServer(sc, sPriv, []box.PublicKey{cPub})
	return client, server, cPub, sPub
}

// TestSecureRoundtrip: data crosses the channel intact in both
// directions, across multiple records and a payload larger than one
// record, and each side reports the authenticated peer key.
func TestSecureRoundtrip(t *testing.T) {
	client, server, cPub, sPub := securePipe(t)

	big := make([]byte, maxRecordPlain*2+777)
	for i := range big {
		big[i] = byte(i * 31)
	}
	serverErr := make(chan error, 1)
	go func() {
		got := make([]byte, len(big))
		if _, err := io.ReadFull(server, got); err != nil {
			serverErr <- err
			return
		}
		if !bytes.Equal(got, big) {
			serverErr <- errors.New("payload corrupted")
			return
		}
		if _, err := server.Write([]byte("ack")); err != nil {
			serverErr <- err
			return
		}
		serverErr <- nil
	}()

	if _, err := client.Write(big); err != nil {
		t.Fatalf("client write: %v", err)
	}
	ack := make([]byte, 3)
	if _, err := io.ReadFull(client, ack); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(ack) != "ack" {
		t.Fatalf("ack corrupted: %q", ack)
	}
	if err := <-serverErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if client.Peer() != sPub {
		t.Fatal("client did not authenticate the server key")
	}
	if server.Peer() != cPub {
		t.Fatal("server did not authenticate the client key")
	}
}

// TestSecureUnauthorizedPeerRefused: a client whose static key is not in
// the server's authorized list fails the handshake with ErrAuth.
func TestSecureUnauthorizedPeerRefused(t *testing.T) {
	_, cPriv := box.KeyPairFromSeed([]byte("stranger"))
	otherPub, _ := box.KeyPairFromSeed([]byte("the-authorized-one"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("secure-server"))
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	client := SecureClient(cc, cPriv, sPub)
	server := SecureServer(sc, sPriv, []box.PublicKey{otherPub})

	go func() {
		client.Handshake()
		cc.Close()
	}()
	err := server.Handshake()
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("unauthorized peer: got %v, want ErrAuth", err)
	}
}

// TestSecureForgedClientIdentityRefused: claiming an authorized public
// key without holding its private key fails the static-static proof.
func TestSecureForgedClientIdentityRefused(t *testing.T) {
	victimPub, _ := box.KeyPairFromSeed([]byte("victim"))
	_, attackerPriv := box.KeyPairFromSeed([]byte("attacker"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("secure-server"))
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	server := SecureServer(sc, sPriv, []box.PublicKey{victimPub})

	// Build msg1 claiming the victim's identity but boxed with the
	// attacker's key.
	go func() {
		forged := SecureClient(cc, attackerPriv, sPub)
		ePub, _, _ := box.GenerateKey(nil)
		ss, _ := box.Precompute(&sPub, &attackerPriv)
		n1 := hsNonce("hs1", ePub[:])
		msg1 := []byte{secureVersion}
		msg1 = append(msg1, victimPub[:]...)
		msg1 = append(msg1, ePub[:]...)
		msg1 = append(msg1, box.Seal(ePub[:], &n1, ss)...)
		forged.writeFrame(msg1)
	}()
	err := server.Handshake()
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("forged identity: got %v, want ErrAuth", err)
	}
}

// TestSecureWrongServerKeyRefused: a server holding a different key than
// the client expects cannot complete the handshake — the client aborts
// with ErrAuth instead of talking to an impostor.
func TestSecureWrongServerKeyRefused(t *testing.T) {
	cPub, cPriv := box.KeyPairFromSeed([]byte("secure-client"))
	expectedPub, _ := box.KeyPairFromSeed([]byte("real-server"))
	_, impostorPriv := box.KeyPairFromSeed([]byte("impostor"))
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	client := SecureClient(cc, cPriv, expectedPub)
	impostor := SecureServer(sc, impostorPriv, []box.PublicKey{cPub})

	go func() {
		impostor.Handshake()
		sc.Close()
	}()
	err := client.Handshake()
	if err == nil {
		t.Fatal("client completed a handshake with an impostor server")
	}
}

// TestSecureDeadlinePassthrough: deadline expiry on an established
// channel surfaces as os.ErrDeadlineExceeded, NOT as ErrAuth — the
// shard router's failure report keys off that distinction.
func TestSecureDeadlinePassthrough(t *testing.T) {
	client, server, _, _ := securePipe(t)
	done := make(chan struct{})
	go func() {
		buf := make([]byte, 8)
		io.ReadFull(server, buf)
		close(done)
	}()
	if _, err := client.Write([]byte("12345678")); err != nil {
		t.Fatal(err)
	}
	<-done

	client.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err := client.Read(make([]byte, 8))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("deadline expiry: got %v, want os.ErrDeadlineExceeded", err)
	}
	if errors.Is(err, ErrAuth) {
		t.Fatal("deadline expiry misclassified as an authentication failure")
	}
}

// TestSecureAuthFailureSticky: after one record fails authentication,
// every later read fails too — a poisoned connection cannot resynchronize
// into accepting traffic again.
func TestSecureAuthFailureSticky(t *testing.T) {
	cPub, cPriv := box.KeyPairFromSeed([]byte("secure-client"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("secure-server"))
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	client := SecureClient(cc, cPriv, sPub)
	server := SecureServer(sc, sPriv, []box.PublicKey{cPub})

	go func() {
		if err := client.Handshake(); err != nil {
			return
		}
		// One garbage record, then a perfectly valid one: the valid
		// record must not be accepted after the poison.
		bad := make([]byte, 4+box.Overhead+4)
		bad[3] = box.Overhead + 4
		cc.Write(bad)
		client.Write([]byte("late"))
		cc.Close()
	}()

	buf := make([]byte, 16)
	_, err := server.Read(buf)
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("garbage record: got %v, want ErrAuth", err)
	}
	if _, err := server.Read(buf); !errors.Is(err, ErrAuth) {
		t.Fatalf("read after poison: got %v, want sticky ErrAuth", err)
	}
}

// TestSecureWriteFailurePoisonsDirection: after any failed record write
// the whole write direction is dead — a retry must NOT seal different
// plaintext under the already-used nonce counter (two-time pad), so
// every later Write fails and nothing new reaches the peer.
func TestSecureWriteFailurePoisonsDirection(t *testing.T) {
	client, server, _, _ := securePipe(t)
	done := make(chan []byte, 1)
	go func() {
		// Drain everything the client ever manages to send.
		var got []byte
		buf := make([]byte, 256)
		for {
			n, err := server.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				done <- got
				return
			}
		}
	}()
	if _, err := client.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}

	// Force a failed record write mid-stream.
	client.SetWriteDeadline(time.Unix(1, 0))
	if _, err := client.Write([]byte("timed-out")); err == nil {
		t.Fatal("write with an expired deadline succeeded")
	}
	// Clearing the deadline must not resurrect the direction.
	client.SetWriteDeadline(time.Time{})
	if _, err := client.Write([]byte("retry")); err == nil {
		t.Fatal("write after a failed record accepted — nonce counter would be reused")
	}
	client.Close()
	if got := <-done; string(got) != "first" {
		t.Fatalf("server received %q after a poisoned write direction, want only %q", got, "first")
	}
}

// TestSecureRefusesPlaintextPeer: a peer speaking the plaintext wire
// protocol (or anything else) into a Secure server fails authentication;
// nothing it sends is ever delivered as data.
func TestSecureRefusesPlaintextPeer(t *testing.T) {
	cPub, _ := box.KeyPairFromSeed([]byte("secure-client"))
	_, sPriv := box.KeyPairFromSeed([]byte("secure-server"))
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	server := SecureServer(sc, sPriv, []box.PublicKey{cPub})

	go func() {
		// A plausible plaintext wire frame: length prefix + payload.
		cc.Write([]byte{0, 0, 0, 8, 1, 1, 0, 0, 0, 0, 0, 7})
		cc.Close()
	}()
	_, err := server.Read(make([]byte, 16))
	if !errors.Is(err, ErrAuth) {
		t.Fatalf("plaintext peer: got %v, want ErrAuth", err)
	}
}

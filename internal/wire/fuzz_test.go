package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/transport"
)

// TestDecodeNeverPanics feeds random byte strings into Decode: it must
// either parse or return an error, never panic or over-read — the frame
// parser fronts untrusted peers.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		m, err := Decode(data)
		if err == nil && m == nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeMutatedFrames mutates valid frames byte-by-byte: every
// mutation either parses into a structurally valid message or errors.
func TestDecodeMutatedFrames(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := (&Message{
		Kind: KindBatch, Proto: ProtoConvo, Round: 77, M: 3,
		Body: [][]byte{{1, 2, 3}, {}, {4, 5}},
	}).Encode()
	for trial := 0; trial < 500; trial++ {
		buf := append([]byte(nil), base...)
		// Mutate 1-3 random bytes.
		for n := 1 + rng.Intn(3); n > 0; n-- {
			buf[rng.Intn(len(buf))] = byte(rng.Intn(256))
		}
		m, err := Decode(buf)
		if err != nil {
			continue
		}
		// Parsed messages must be internally consistent.
		total := 0
		for _, b := range m.Body {
			total += len(b)
		}
		if total > len(buf) {
			t.Fatalf("decoded body larger than frame")
		}
	}
}

// TestDecodeTruncations checks every prefix of a valid frame.
func TestDecodeTruncations(t *testing.T) {
	base := (&Message{
		Kind: KindReplies, Round: 9,
		Body: [][]byte{make([]byte, 37), make([]byte, 5)},
	}).Encode()
	for i := 0; i < len(base); i++ {
		if _, err := Decode(base[:i]); err == nil {
			t.Fatalf("truncation at %d accepted", i)
		}
	}
	if _, err := Decode(base); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
}

// TestHugeCountRejected guards the pre-allocation bound.
func TestHugeCountRejected(t *testing.T) {
	base := (&Message{Kind: KindBatch}).Encode()
	// Overwrite the count field (bytes 18..21) with a huge value.
	base[18], base[19], base[20], base[21] = 0xff, 0xff, 0xff, 0xff
	if _, err := Decode(base); err == nil {
		t.Fatal("absurd element count accepted")
	}
}

// TestShardFrameNeverPanics fuzzes the shard-leg validators with random
// byte strings: whatever Decode accepts, CheckShardRound and
// CheckShardReply must classify without panicking — both fronts face a
// potentially compromised peer (router or shard).
func TestShardFrameNeverPanics(t *testing.T) {
	f := func(data []byte, shard, numShards uint32, round uint64, want uint16) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("shard validation panicked on %x: %v", data, r)
			}
		}()
		m, err := Decode(data)
		if err != nil {
			return true
		}
		_ = CheckShardRound(m, shard, numShards)
		_ = CheckShardReply(m, round, shard, int(want))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestShardRoundCorruptIndex mutates the shard-index field of a valid
// shard round frame: every corrupted index (misrouted or out of range)
// must be rejected, and only the authentic one accepted.
func TestShardRoundCorruptIndex(t *testing.T) {
	const shard, numShards = 3, 8
	base := ShardRoundMessage(7, shard, [][]byte{{1, 2}, {3}}).Encode()
	for v := uint32(0); v < 2*numShards; v++ {
		buf := append([]byte(nil), base...)
		// Bucket field lives at bytes 14..17.
		buf[14], buf[15], buf[16], buf[17] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
		m, err := Decode(buf)
		if err != nil {
			t.Fatalf("index %d: frame no longer parses: %v", v, err)
		}
		err = CheckShardRound(m, shard, numShards)
		if v == shard && err != nil {
			t.Fatalf("authentic index rejected: %v", err)
		}
		if v != shard && err == nil {
			t.Fatalf("corrupt shard index %d accepted", v)
		}
	}
}

// TestShardReplyTruncatedSubBatch: every truncation of a shard reply
// frame either fails Decode or is caught by CheckShardReply's count and
// field checks — a shard cannot silently shorten the reply batch.
func TestShardReplyTruncatedSubBatch(t *testing.T) {
	const round, shard, want = 9, 2, 3
	full := ShardReplyMessage(round, shard, [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 16)})
	base := full.Encode()
	for i := 0; i < len(base); i++ {
		m, err := Decode(base[:i])
		if err != nil {
			continue
		}
		if err := CheckShardReply(m, round, shard, want); err == nil {
			t.Fatalf("truncation at %d accepted as a complete shard reply", i)
		}
	}
	m, err := Decode(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckShardReply(m, round, shard, want); err != nil {
		t.Fatalf("full frame rejected: %v", err)
	}
	// Dropping one reply must also be caught.
	short := ShardReplyMessage(round, shard, [][]byte{make([]byte, 16), make([]byte, 16)})
	if err := CheckShardReply(short, round, shard, want); err == nil {
		t.Fatal("short reply batch accepted")
	}
}

// TestShardReplyDuplicateRejected: a duplicated (stale-round) shard reply
// replayed into a later round fails the round check, and replies for the
// wrong shard or of the wrong kind are likewise rejected — the router's
// desync detection rests on these.
func TestShardReplyDuplicateRejected(t *testing.T) {
	dup := ShardReplyMessage(7, 1, [][]byte{{0xa}})
	if err := CheckShardReply(dup, 7, 1, 1); err != nil {
		t.Fatalf("authentic reply rejected: %v", err)
	}
	if err := CheckShardReply(dup, 8, 1, 1); err == nil {
		t.Fatal("stale (duplicate) round-7 reply accepted for round 8")
	}
	if err := CheckShardReply(dup, 7, 2, 1); err == nil {
		t.Fatal("reply from wrong shard accepted")
	}
	wrongKind := &Message{Kind: KindReplies, Proto: ProtoConvo, Round: 7, Bucket: 1, Body: [][]byte{{0xa}}}
	if err := CheckShardReply(wrongKind, 7, 1, 1); err == nil {
		t.Fatal("non-shard frame accepted as a shard reply")
	}
	wrongProto := ShardReplyMessage(7, 1, [][]byte{{0xa}})
	wrongProto.Proto = ProtoDial
	if err := CheckShardReply(wrongProto, 7, 1, 1); err == nil {
		t.Fatal("wrong-protocol shard reply accepted")
	}
	if err := CheckShardReply(nil, 7, 1, 1); err == nil {
		t.Fatal("nil message accepted")
	}
	if err := CheckShardRound(nil, 0, 1); err == nil {
		t.Fatal("nil message accepted as shard round")
	}
}

// FuzzCheckFrontBatch fuzzes the coordinator's validator for
// frontend-pipe partial batches: whatever Decode accepts, CheckFrontBatch
// must classify without panicking, reject with an ErrFrontFrame-classed
// error, and accept only frames whose body is exactly M×perClient onions
// — the frame that decides how many onions an untrusted frontend injects
// into a round. Seeds cover a corrupt onion count (M field), an
// oversized timeout field (Bucket bytes), truncations, and the empty
// frame.
func FuzzCheckFrontBatch(f *testing.F) {
	valid := FrontBatchMessage(ProtoConvo, 7, 2, [][]byte{{1}, {2}, {3}, {4}}).Encode()
	f.Add(valid, uint16(2))
	// Corrupt onion count: the M field (bytes 10..13) no longer matches
	// the body.
	corruptM := append([]byte(nil), valid...)
	corruptM[10], corruptM[11], corruptM[12], corruptM[13] = 0, 0, 0, 9
	f.Add(corruptM, uint16(2))
	// Oversized timeout field: the Bucket bytes (14..17) carry the
	// submit-timeout budget on announce frames; a forged batch echoing a
	// saturated budget must still be judged only on its structure.
	bigBucket := append([]byte(nil), valid...)
	bigBucket[14], bigBucket[15], bigBucket[16], bigBucket[17] = 0xff, 0xff, 0xff, 0xff
	f.Add(bigBucket, uint16(2))
	f.Add(valid[:9], uint16(1))
	f.Add([]byte{}, uint16(0))
	f.Add(FrontBatchMessage(ProtoDial, 3, 0, nil).Encode(), uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, perClient uint16) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("CheckFrontBatch panicked on %x: %v", data, r)
			}
		}()
		m, err := Decode(data)
		if err != nil {
			return
		}
		if err := CheckFrontBatch(m, int(perClient)); err != nil {
			if !errors.Is(err, ErrFrontFrame) {
				t.Fatalf("rejection not ErrFrontFrame-classed: %v", err)
			}
			return
		}
		// Accepted frames must be internally consistent: the coordinator
		// slices the round batch by these counts.
		if m.Kind != KindFrontBatch {
			t.Fatalf("accepted kind %d as a front batch", m.Kind)
		}
		if perClient < 1 {
			t.Fatal("accepted a batch with a non-positive per-client count")
		}
		if int64(m.M)*int64(perClient) != int64(len(m.Body)) {
			t.Fatalf("accepted %d onions for %d clients × %d per client", len(m.Body), m.M, perClient)
		}
	})
}

// FuzzCheckFrontReplies fuzzes the frontend's validator for the
// coordinator's reply slices: no decoded frame may panic the check, a
// rejection must be ErrFrontFrame-classed, and an accepted slice must
// match the outstanding batch exactly — kind, proto, round, and reply
// count. Seeds cover a stale reply slice (previous round's frame against
// the current round), a cross-protocol slice, and truncations.
func FuzzCheckFrontReplies(f *testing.F) {
	valid := frontReplies(ProtoConvo, 7, 2, [][]byte{{1}, {2}}).Encode()
	f.Add(valid, uint8(ProtoConvo), uint64(7), uint16(2))
	// Stale reply slice: round-7 replies replayed against round 8.
	f.Add(valid, uint8(ProtoConvo), uint64(8), uint16(2))
	// Cross-protocol: convo replies against a dial round.
	f.Add(valid, uint8(ProtoDial), uint64(7), uint16(2))
	// Dialing acknowledgement: M echoes the bucket count, empty body.
	f.Add(frontReplies(ProtoDial, 3, 5, nil).Encode(), uint8(ProtoDial), uint64(3), uint16(0))
	f.Add(valid[:11], uint8(ProtoConvo), uint64(7), uint16(2))
	f.Add([]byte{}, uint8(0), uint64(0), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, proto uint8, round uint64, want uint16) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("CheckFrontReplies panicked on %x: %v", data, r)
			}
		}()
		m, err := Decode(data)
		if err != nil {
			return
		}
		if err := CheckFrontReplies(m, Proto(proto), round, int(want)); err != nil {
			if !errors.Is(err, ErrFrontFrame) {
				t.Fatalf("rejection not ErrFrontFrame-classed: %v", err)
			}
			return
		}
		if m.Kind != KindFrontReplies || m.Proto != Proto(proto) || m.Round != round || len(m.Body) != int(want) {
			t.Fatalf("accepted reply slice kind=%d proto=%d round=%d n=%d against proto=%d round=%d want=%d",
				m.Kind, m.Proto, m.Round, len(m.Body), proto, round, want)
		}
	})
}

// ---- Fuzz targets for the authenticated shard-leg transport ----
//
// The shard fan-out frames of this package travel inside
// transport.Secure; these targets fuzz that channel's two parsing
// surfaces — the handshake and the encrypted record framing — with
// attacker-controlled bytes. Run as plain unit tests they exercise the
// seed corpus; CI additionally runs each under `go test -fuzz` for a
// short smoke (see Makefile `fuzz` target).

// fuzzKeys returns the fixed identities the fuzz harnesses use.
func fuzzKeys() (cPub box.PublicKey, cPriv box.PrivateKey, sPub box.PublicKey, sPriv box.PrivateKey) {
	cPub, cPriv = box.KeyPairFromSeed([]byte("fuzz-client"))
	sPub, sPriv = box.KeyPairFromSeed([]byte("fuzz-server"))
	return
}

// FuzzSecureHandshakeServer throws arbitrary bytes at the accepting side
// of the handshake: without the client's private key no input FORGES a
// hello (truncated hellos, resized frames, wrong-key ciphertext all land
// here), and the server must neither panic nor complete. One caveat: a
// byte-exact REPLAY of a genuine hello does satisfy the server's checks
// (the replayer still never learns the session key) — in this harness it
// fails anyway because the peer never drains the handshake response, and
// at the system level the shard server keeps its connection deadline
// until the first authenticated frame, so a replayed hello cannot pin a
// goroutine (see mixnet.TestShardHandshakeReplayCannotPinGoroutine).
func FuzzSecureHandshakeServer(f *testing.F) {
	cPub, cPriv, sPub, sPriv := fuzzKeys()
	// Seed with a genuine hello so mutations explore near-valid space.
	// The hello frame is 4 (length) + 113 (payload) bytes.
	cc, sc := net.Pipe()
	go func() {
		transport.SecureClient(cc, cPriv, sPub).Handshake()
		cc.Close()
	}()
	var hello bytes.Buffer
	sc.SetReadDeadline(time.Now().Add(2 * time.Second))
	io.Copy(&hello, io.LimitReader(sc, 117))
	sc.Close()
	f.Add(hello.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 42})
	f.Add(bytes.Repeat([]byte{0xff}, 121))

	f.Fuzz(func(t *testing.T, data []byte) {
		cc, sc := net.Pipe()
		defer cc.Close()
		defer sc.Close()
		sc.SetDeadline(time.Now().Add(200 * time.Millisecond))
		go func() {
			cc.Write(data)
			cc.Close()
		}()
		server := transport.SecureServer(sc, sPriv, []box.PublicKey{cPub})
		if err := server.Handshake(); err == nil {
			t.Fatalf("handshake completed from %d attacker bytes", len(data))
		}
	})
}

// FuzzSecureHandshakeClient throws arbitrary bytes at the dialing side's
// response parser: an attacker impersonating a shard cannot complete the
// handshake without the shard's private key.
func FuzzSecureHandshakeClient(f *testing.F) {
	_, cPriv, sPub, sPriv := fuzzKeys()
	_ = sPriv
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0, 0, 0, 112})
	f.Add(bytes.Repeat([]byte{0xa5}, 116))

	f.Fuzz(func(t *testing.T, data []byte) {
		cc, sc := net.Pipe()
		defer cc.Close()
		defer sc.Close()
		cc.SetDeadline(time.Now().Add(200 * time.Millisecond))
		go func() {
			// Drain the hello, answer with fuzz.
			buf := make([]byte, 256)
			sc.Read(buf)
			sc.Write(data)
			sc.Close()
		}()
		client := transport.SecureClient(cc, cPriv, sPub)
		if err := client.Handshake(); err == nil {
			t.Fatalf("client completed a handshake against %d forged bytes", len(data))
		}
	})
}

// FuzzSecureRecordTamper establishes a real authenticated channel and
// lets the fuzzer mutate the encrypted record stream through a MITM:
// flip a byte, replay, swap, drop, or truncate at a fuzzer-chosen point.
// The receiving side must deliver at most a prefix of the original
// plaintext, in order, and classify any effective mutation as ErrAuth —
// never panic, never deliver corrupted bytes. Corrupted-nonce-counter
// cases are exactly the replay/swap/drop mutations: the counter is
// implicit, so any reordering decrypts under the wrong nonce.
func FuzzSecureRecordTamper(f *testing.F) {
	cPub, cPriv, sPub, sPriv := fuzzKeys()
	f.Add([]byte("hello shard"), uint8(0), uint16(1), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 300), uint8(1), uint16(1), uint8(0))
	f.Add([]byte("swap me"), uint8(2), uint16(1), uint8(0))
	f.Add([]byte("drop me"), uint8(3), uint16(2), uint8(0))
	f.Add([]byte("cut me"), uint8(4), uint16(1), uint8(3))

	f.Fuzz(func(t *testing.T, payload []byte, op uint8, recIdx uint16, arg uint8) {
		if len(payload) == 0 || len(payload) > 4096 {
			return
		}
		mem := transport.NewMem()
		l, err := mem.Listen("shard")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()

		type result struct {
			got []byte
			err error
		}
		results := make(chan result, 1)
		go func() {
			raw, err := l.Accept()
			if err != nil {
				results <- result{err: err}
				return
			}
			defer raw.Close()
			raw.SetDeadline(time.Now().Add(700 * time.Millisecond))
			server := transport.SecureServer(raw, sPriv, []box.PublicKey{cPub})
			var got []byte
			buf := make([]byte, 4096)
			for {
				n, err := server.Read(buf)
				got = append(got, buf[:n]...)
				if err != nil {
					results <- result{got: got, err: err}
					return
				}
			}
		}()

		mutated := false
		var heldRec []byte
		mitm := transport.NewMITM(mem)
		mitm.Intercept("shard", func(dir transport.Direction, index int, rec []byte) [][]byte {
			if dir != transport.ClientToServer {
				return [][]byte{rec}
			}
			if index == int(recIdx) {
				mutated = true
				switch op % 5 {
				case 0: // flip one byte
					rec[int(arg)%len(rec)] ^= 1 | arg
					return [][]byte{rec}
				case 1: // replay
					return [][]byte{rec, rec}
				case 2: // swap with the next record
					heldRec = rec
					return nil
				case 3: // drop
					return nil
				default: // truncate
					return [][]byte{rec[:int(arg)%len(rec)]}
				}
			}
			if heldRec != nil {
				out := [][]byte{rec, heldRec}
				heldRec = nil
				return out
			}
			return [][]byte{rec}
		})

		raw, err := mitm.Dial("shard")
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		raw.SetDeadline(time.Now().Add(700 * time.Millisecond))
		client := transport.SecureClient(raw, cPriv, sPub)
		// Two writes so swap/drop targets have a successor record;
		// record 0 is the handshake hello, data records are 1 and 2.
		half := len(payload) / 2
		client.Write(payload[:half])
		client.Write(payload[half:])
		client.Close()

		res := <-results
		if !bytes.HasPrefix(payload, res.got) {
			t.Fatalf("op=%d idx=%d: server got %q, not a prefix of %q", op%5, recIdx, res.got, payload)
		}
		if mutated && len(res.got) == len(payload) && op%5 != 2 && op%5 != 3 {
			// A tamper/replay/truncate that touched a real record must
			// not end with the full payload delivered and a clean EOF.
			if res.err == nil || errors.Is(res.err, io.EOF) {
				t.Fatalf("op=%d idx=%d: mutated stream delivered everything cleanly", op%5, recIdx)
			}
		}
	})
}

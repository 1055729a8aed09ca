package convo

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/deaddrop"
	"vuvuzela/internal/noise"
)

func keyPair(t testing.TB, seed string) (box.PublicKey, box.PrivateKey) {
	t.Helper()
	pub, priv := box.KeyPairFromSeed([]byte(seed))
	return pub, priv
}

func TestDeriveSecretSymmetric(t *testing.T) {
	alicePub, alicePriv := keyPair(t, "alice")
	bobPub, bobPriv := keyPair(t, "bob")
	sa, err := DeriveSecret(&alicePriv, &bobPub)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := DeriveSecret(&bobPriv, &alicePub)
	if err != nil {
		t.Fatal(err)
	}
	if *sa != *sb {
		t.Fatal("conversation secrets differ between the two ends")
	}
}

func TestDeadDropChangesEveryRound(t *testing.T) {
	var s [32]byte
	s[0] = 1
	seen := map[[16]byte]bool{}
	for r := uint64(0); r < 100; r++ {
		id := DeadDropID(&s, r)
		if seen[id] {
			t.Fatalf("dead drop repeated at round %d", r)
		}
		seen[id] = true
	}
}

func TestDeadDropDependsOnSecret(t *testing.T) {
	var s1, s2 [32]byte
	s2[0] = 1
	if DeadDropID(&s1, 5) == DeadDropID(&s2, 5) {
		t.Fatal("different secrets produced the same drop")
	}
}

func TestPadUnpad(t *testing.T) {
	for _, msg := range [][]byte{nil, {}, []byte("hi"), bytes.Repeat([]byte("x"), MaxMessageLen)} {
		p, err := PadMessage(msg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnpadMessage(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg) == 0 {
			if got != nil {
				t.Fatalf("empty message unpadded to %q", got)
			}
			continue
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("roundtrip failed for %q", msg)
		}
	}
}

func TestPadTooLong(t *testing.T) {
	if _, err := PadMessage(make([]byte, MaxMessageLen+1)); err != ErrMessageTooLong {
		t.Fatalf("want ErrMessageTooLong, got %v", err)
	}
}

func TestUnpadBadLength(t *testing.T) {
	var p [PayloadSize]byte
	p[0] = 0xff
	p[1] = 0xff
	if _, err := UnpadMessage(p); err != ErrBadPadding {
		t.Fatalf("want ErrBadPadding, got %v", err)
	}
}

func TestPadQuick(t *testing.T) {
	f := func(msg []byte) bool {
		if len(msg) > MaxMessageLen {
			msg = msg[:MaxMessageLen]
		}
		p, err := PadMessage(msg)
		if err != nil {
			return false
		}
		got, err := UnpadMessage(p)
		if err != nil {
			return false
		}
		if len(msg) == 0 {
			return got == nil
		}
		return bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMessageRoundTrip: Alice seals for round r, Bob opens with Alice's
// public key; and direction matters (no nonce reuse between the two ends).
func TestMessageRoundTrip(t *testing.T) {
	alicePub, alicePriv := keyPair(t, "alice")
	bobPub, bobPriv := keyPair(t, "bob")
	s, _ := DeriveSecret(&alicePriv, &bobPub)
	sB, _ := DeriveSecret(&bobPriv, &alicePub)

	payload, _ := PadMessage([]byte("Hi, Bob!"))
	sealed := SealMessage(s, 42, &alicePub, &payload)

	got, err := OpenMessage(sB, 42, &alicePub, sealed[:])
	if err != nil {
		t.Fatal(err)
	}
	msg, err := UnpadMessage(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg) != "Hi, Bob!" {
		t.Fatalf("got %q", msg)
	}

	// Bob must not be able to open it as if it were his own message
	// (direction-asymmetric nonces).
	if _, err := OpenMessage(sB, 42, &bobPub, sealed[:]); err == nil {
		t.Fatal("message opened under the wrong direction")
	}
	// And the wrong round must fail.
	if _, err := OpenMessage(sB, 43, &alicePub, sealed[:]); err == nil {
		t.Fatal("message opened in the wrong round")
	}
}

// TestBothDirectionsSameRound: both ends sealing in the same round must
// produce mutually decryptable, non-identical ciphertexts.
func TestBothDirectionsSameRound(t *testing.T) {
	alicePub, alicePriv := keyPair(t, "alice")
	bobPub, bobPriv := keyPair(t, "bob")
	s, _ := DeriveSecret(&alicePriv, &bobPub)
	_ = bobPriv

	p1, _ := PadMessage([]byte("from alice"))
	p2, _ := PadMessage([]byte("from bob"))
	c1 := SealMessage(s, 7, &alicePub, &p1)
	c2 := SealMessage(s, 7, &bobPub, &p2)
	if c1 == c2 {
		t.Fatal("ciphertexts identical across directions")
	}
	if msg, ok := OpenReply(s, 7, &bobPub, c2[:]); !ok || string(msg) != "from bob" {
		t.Fatalf("alice failed to read bob: %q %v", msg, ok)
	}
	if msg, ok := OpenReply(s, 7, &alicePub, c1[:]); !ok || string(msg) != "from alice" {
		t.Fatalf("bob failed to read alice: %q %v", msg, ok)
	}
}

func TestRequestMarshalParse(t *testing.T) {
	alicePub, _ := keyPair(t, "alice")
	var s [32]byte
	s[3] = 9
	req, err := BuildRequest(&s, 11, &alicePub, []byte("msg"))
	if err != nil {
		t.Fatal(err)
	}
	wire := req.Marshal()
	if len(wire) != RequestSize {
		t.Fatalf("wire size %d, want %d", len(wire), RequestSize)
	}
	// The last server reads the request back where it lies: drop ID, then
	// the sealed message (what its drop partner is handed); any other
	// length gets a zero reply.
	if deaddrop.ID(wire) != req.DeadDrop || [SealedSize]byte(wire[deaddrop.IDSize:]) != req.Sealed {
		t.Fatal("layout mismatch")
	}
	replies := Service{}.Process(11, [][]byte{wire, wire[:RequestSize-1], wire})
	if !bytes.Equal(replies[0], req.Sealed[:]) || !bytes.Equal(replies[2], req.Sealed[:]) || !bytes.Equal(replies[1], make([]byte, len(replies[1]))) {
		t.Fatal("exchange did not pair the two well-formed requests around the short one")
	}
}

// TestFakeRequestIndistinguishableSize: fake and real requests are the
// same size and fakes never repeat drops.
func TestFakeRequestIndistinguishableSize(t *testing.T) {
	alicePub, _ := keyPair(t, "alice")
	var s [32]byte
	real, err := BuildRequest(&s, 1, &alicePub, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[16]byte]bool{}
	for i := 0; i < 50; i++ {
		fake, err := BuildRequest(nil, 1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(fake.Marshal()) != len(real.Marshal()) {
			t.Fatal("fake request size differs")
		}
		if seen[fake.DeadDrop] {
			t.Fatal("fake requests repeated a drop")
		}
		seen[fake.DeadDrop] = true
	}
}

// TestEndToEndExchange: two clients build requests for the same round; the
// service matches them; each reads the other's message.
func TestEndToEndExchange(t *testing.T) {
	alicePub, alicePriv := keyPair(t, "alice")
	bobPub, bobPriv := keyPair(t, "bob")
	sA, _ := DeriveSecret(&alicePriv, &bobPub)
	sB, _ := DeriveSecret(&bobPriv, &alicePub)

	const round = 99
	reqA, _ := BuildRequest(sA, round, &alicePub, []byte("hi bob"))
	reqB, _ := BuildRequest(sB, round, &bobPub, []byte("hi alice"))
	fake, _ := BuildRequest(nil, round, nil, nil)

	var svc Service
	replies := svc.Process(round, [][]byte{reqA.Marshal(), fake.Marshal(), reqB.Marshal()})

	if msg, ok := OpenReply(sA, round, &bobPub, replies[0]); !ok || string(msg) != "hi alice" {
		t.Fatalf("alice: %q %v", msg, ok)
	}
	if msg, ok := OpenReply(sB, round, &alicePub, replies[2]); !ok || string(msg) != "hi bob" {
		t.Fatalf("bob: %q %v", msg, ok)
	}
	// The fake request's reply must be zeros (single access).
	if !bytes.Equal(replies[1], make([]byte, len(replies[1]))) {
		t.Fatal("fake request got a non-zero reply")
	}
	// A zero reply never opens as a message.
	if _, ok := OpenReply(sA, round, &bobPub, replies[1]); ok {
		t.Fatal("zero reply opened as a message")
	}
}

// TestOfflinePartner: Alice alone on the drop gets zeros → (nil, false).
func TestOfflinePartner(t *testing.T) {
	alicePub, alicePriv := keyPair(t, "alice")
	bobPub, _ := keyPair(t, "bob")
	s, _ := DeriveSecret(&alicePriv, &bobPub)
	req, _ := BuildRequest(s, 5, &alicePub, []byte("anyone there?"))
	var svc Service
	replies := svc.Process(5, [][]byte{req.Marshal()})
	if msg, ok := OpenReply(s, 5, &bobPub, replies[0]); ok {
		t.Fatalf("got unexpected message %q", msg)
	}
}

func TestServiceMalformedRequest(t *testing.T) {
	var svc Service
	replies := svc.Process(1, [][]byte{make([]byte, 10)})
	if len(replies) != 1 || len(replies[0]) != SealedSize {
		t.Fatal("malformed request did not get a fixed-size zero reply")
	}
	if !bytes.Equal(replies[0], make([]byte, len(replies[0]))) {
		t.Fatal("malformed request reply not zero")
	}
}

// TestNoiseGenCounts verifies the single/pair structure with a fixed
// distribution: n1 singles + ⌈n2/2⌉ pairs.
func TestNoiseGenCounts(t *testing.T) {
	g := NoiseGen{Dist: noise.Fixed{N: 5}}
	reqs := g.Generate()
	// n1 = 5 singles, n2 = 5 → 3 pairs → 6 requests; total 11.
	if len(reqs) != 11 {
		t.Fatalf("got %d noise requests, want 11", len(reqs))
	}
	m1, m2, more := Histogram(reqs)
	if m1 != 5 || m2 != 3 || more != 0 {
		t.Fatalf("noise histogram (%d,%d,%d), want (5,3,0)", m1, m2, more)
	}
	for _, r := range reqs {
		if len(r) != RequestSize {
			t.Fatal("noise request has wrong size")
		}
	}
}

// TestNoiseGenLaplaceMean: with Laplace(µ, b) the average number of noise
// requests per round is ≈ 2µ (n1 + n2), the paper's accounting in §8.2.
func TestNoiseGenLaplaceMean(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	g := NoiseGen{
		Dist: noise.Laplace{Mu: 1000, B: 50},
		Src:  src,
		Rand: rand.New(rand.NewSource(2)),
	}
	total := 0
	const rounds = 200
	for i := 0; i < rounds; i++ {
		total += len(g.Generate())
	}
	mean := float64(total) / rounds
	if mean < 1900 || mean > 2100 {
		t.Fatalf("mean noise %v requests/round, want ≈ 2000", mean)
	}
}

// TestNoiseIndistinguishable: noise requests processed by the service look
// like user requests (singles get zero replies, pairs exchange).
func TestNoiseIndistinguishable(t *testing.T) {
	g := NoiseGen{Dist: noise.Fixed{N: 2}}
	reqs := g.Generate()
	var svc Service
	replies := svc.Process(3, reqs)
	if len(replies) != len(reqs) {
		t.Fatal("reply count mismatch")
	}
	for _, r := range replies {
		if len(r) != SealedSize {
			t.Fatal("noise reply size mismatch")
		}
	}
}

func BenchmarkBuildRequest(b *testing.B) {
	alicePub, alicePriv := box.KeyPairFromSeed([]byte("alice"))
	bobPub, _ := box.KeyPairFromSeed([]byte("bob"))
	s, err := DeriveSecret(&alicePriv, &bobPub)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("benchmark message payload")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRequest(s, uint64(i), &alicePub, msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceProcess10k(b *testing.B) {
	g := NoiseGen{Dist: noise.Fixed{N: 5000}}
	reqs := g.Generate()
	var svc Service
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc.Process(uint64(i), reqs)
	}
}

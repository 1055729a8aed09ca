package dial

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	mrand "math/rand/v2"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/noise"
)

func TestInvitationSize(t *testing.T) {
	// Paper §8.1: invitations are 80 bytes including 48 bytes of overhead.
	if InvitationSize != 80 {
		t.Fatalf("InvitationSize = %d, want 80", InvitationSize)
	}
}

func TestBucketOfStableAndBounded(t *testing.T) {
	pk, _ := box.KeyPairFromSeed([]byte("u1"))
	for _, m := range []uint32{1, 2, 7, 1000} {
		b1 := BucketOf(&pk, m)
		b2 := BucketOf(&pk, m)
		if b1 != b2 {
			t.Fatal("bucket not deterministic")
		}
		if b1 >= m {
			t.Fatalf("bucket %d out of range m=%d", b1, m)
		}
	}
	if BucketOf(&pk, 0) != 0 {
		t.Fatal("m=0 should degrade to bucket 0")
	}
}

func TestBucketDistribution(t *testing.T) {
	const m = 8
	counts := make([]int, m)
	for i := 0; i < 4000; i++ {
		pk, _ := box.KeyPairFromSeed([]byte{byte(i), byte(i >> 8), 'd'})
		counts[BucketOf(&pk, m)]++
	}
	for i, c := range counts {
		if c < 300 || c > 700 {
			t.Fatalf("bucket %d has %d of 4000 keys; distribution skewed", i, c)
		}
	}
}

func TestOptimalBuckets(t *testing.T) {
	// The coordinator calls this with whatever population and operator
	// config it has and announces the result to every client, so every
	// edge must produce a sane bucket count — never 0, never a wrapped
	// float conversion.
	cases := []struct {
		name     string
		users    int
		fraction float64
		mu       float64
		want     uint32
	}{
		// §8.1's configuration: 1M users, 5% dialing, µ=13,000 → m = 3.
		{"paper-config", 1000000, 0.05, 13000, 3},
		// §7: at small scale the optimal number of dead drops is one.
		{"small-scale", 100, 0.05, 13000, 1},
		{"zero-everything", 0, 0, 0, 1},
		// An entry with no clients yet still announces one bucket.
		{"zero-clients", 0, 0.05, 13000, 1},
		{"one-client", 1, 0.05, 13000, 1},
		{"negative-clients", -5, 0.05, 13000, 1},
		// Exactly at the m=1 boundary, and just either side of the
		// floor between 2 and 3: uint32 truncation keeps the floor.
		{"exactly-one", 13000, 1, 13000, 1},
		{"just-below-three", 59999, 0.05, 1000, 2},     // m = 2.99995
		{"exactly-three", 60000, 0.05, 1000, 3},        // m = 3.0
		{"just-above-three", 60001, 0.05, 1000, 3},     // m = 3.00005
		{"fraction-of-a-bucket", 25999, 0.05, 1300, 1}, // m = 0.99996
		// Extreme µ: a huge noise mean collapses to one bucket; a tiny
		// (or zero/negative/NaN) one must not wrap the uint32 conversion.
		{"huge-mu", 1000000, 0.05, math.MaxFloat64, 1},
		{"tiny-mu", 1000000, 1, 1e-9, math.MaxUint32},
		{"zero-mu", 1000000, 0.05, 0, 1},
		{"negative-mu", 1000000, 0.05, -13000, 1},
		{"nan-mu", 1000000, 0.05, math.NaN(), 1},
		{"inf-mu", 1000000, 0.05, math.Inf(1), 1},
		{"nan-fraction", 1000000, math.NaN(), 13000, 1},
		{"negative-fraction", 1000000, -0.05, 13000, 1},
		// Over-unity fraction (operator typo) still saturates sanely.
		{"overflowing-product", math.MaxInt32, 1e9, 1e-9, math.MaxUint32},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := OptimalBuckets(c.users, c.fraction, c.mu)
			if got != c.want {
				t.Fatalf("OptimalBuckets(%d, %v, %v) = %d, want %d", c.users, c.fraction, c.mu, got, c.want)
			}
			if got == 0 {
				t.Fatal("bucket count 0 would break BucketOf's modulus")
			}
		})
	}
}

func TestInvitationRoundTrip(t *testing.T) {
	senderPub, _ := box.KeyPairFromSeed([]byte("caller"))
	rPub, rPriv := box.KeyPairFromSeed([]byte("callee"))

	inv := Invitation{Sender: senderPub}
	sealed, err := inv.Seal(&rPub, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != InvitationSize {
		t.Fatalf("sealed size %d, want %d", len(sealed), InvitationSize)
	}
	got, ok := openInvitation(sealed, &rPub, box.NewDHKey(&rPriv))
	if !ok {
		t.Fatal("recipient failed to open invitation")
	}
	if got.Sender != senderPub {
		t.Fatal("sender key mismatch")
	}

	// A different user cannot open it.
	oPub, oPriv := box.KeyPairFromSeed([]byte("other"))
	if _, ok := openInvitation(sealed, &oPub, box.NewDHKey(&oPriv)); ok {
		t.Fatal("wrong recipient opened invitation")
	}
}

func TestRequestMarshalParse(t *testing.T) {
	var req Request
	req.Bucket = 42
	for i := range req.Sealed {
		req.Sealed[i] = byte(i)
	}
	wire := req.Marshal()
	if len(wire) != RequestSize {
		t.Fatalf("wire size %d", len(wire))
	}
	// The last server reads the request back where it lies: bucket index,
	// then the sealed invitation; any other length is discarded.
	filed := Service{}.Process(1, 43, [][]byte{wire, wire[1:]}).Data
	if len(filed[42]) != InvitationSize || [InvitationSize]byte(filed[42]) != req.Sealed {
		t.Fatal("roundtrip mismatch")
	}
	for i, blob := range filed[:42] {
		if len(blob) != 0 {
			t.Fatalf("short request filed into bucket %d", i)
		}
	}
}

func TestBuildRequestRealAndIdle(t *testing.T) {
	senderPub, _ := box.KeyPairFromSeed([]byte("caller"))
	rPub, rPriv := box.KeyPairFromSeed([]byte("callee"))
	const m = 4

	real, err := BuildRequest(&senderPub, &rPub, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if real.Bucket != BucketOf(&rPub, m) {
		t.Fatal("real request targets wrong bucket")
	}
	if inv, ok := openInvitation(real.Sealed[:], &rPub, box.NewDHKey(&rPriv)); !ok || inv.Sender != senderPub {
		t.Fatal("recipient cannot open built invitation")
	}

	idle, err := BuildRequest(&senderPub, nil, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if idle.Bucket != NoOpBucket {
		t.Fatal("idle request not addressed to no-op bucket")
	}
	if len(idle.Marshal()) != len(real.Marshal()) {
		t.Fatal("idle and real requests differ in size")
	}
}

// TestNoOpRequestSeals replays the idle request: under a seeded reader its
// bytes are box.SealAnonymous of the stream's first 32 bytes to its next
// 32, on the rest of the same stream. So it costs the ephemeral key and the
// DH a real invitation costs, and the entry cannot time who dials.
func TestNoOpRequestSeals(t *testing.T) {
	seed := [32]byte{'n', 'o', '-', 'o', 'p'}
	idle, err := BuildRequest(nil, nil, 3, mrand.NewChaCha8(seed))
	if err != nil {
		t.Fatal(err)
	}
	stream := mrand.NewChaCha8(seed)
	var payload [InvitationPayloadSize]byte
	var u box.PublicKey
	stream.Read(payload[:])
	stream.Read(u[:])
	want, err := box.SealAnonymous(payload[:], &u, stream)
	if err != nil {
		t.Fatal(err)
	}
	if idle.Bucket != NoOpBucket || !bytes.Equal(idle.Sealed[:], want) {
		t.Fatalf("idle request %x to bucket %d, want SealAnonymous's %x to the no-op bucket", idle.Sealed, idle.Bucket, want)
	}
}

// TestServiceFilesAndDiscards: requests land in their buckets; no-ops and
// malformed requests are discarded; last-server noise lands in every
// bucket.
func TestServiceFilesAndDiscards(t *testing.T) {
	senderPub, _ := box.KeyPairFromSeed([]byte("caller"))
	rPub, rPriv := box.KeyPairFromSeed([]byte("callee"))
	const m = 3

	real, _ := BuildRequest(&senderPub, &rPub, m, nil)
	idle, _ := BuildRequest(&senderPub, nil, m, nil)

	counts := make([]int, m)
	NoiseGen{Dist: noise.Fixed{N: 2}}.Draw(counts)
	svc := Service{Rand: rand.New(rand.NewSource(1))}
	buckets := svc.File(7, m, [][]byte{real.Marshal(), idle.Marshal(), {1, 2, 3}}, counts)

	if buckets.Round != 7 || buckets.M != m {
		t.Fatal("bucket metadata wrong")
	}
	for i := uint32(0); i < m; i++ {
		invs := buckets.Invitations(i)
		want := 2 // last-server noise
		if i == real.Bucket {
			want++
		}
		if len(invs) != want {
			t.Fatalf("bucket %d has %d invitations, want %d", i, len(invs), want)
		}
	}

	// The recipient finds exactly one real invitation in its bucket.
	found := ScanBucket(buckets.Invitations(real.Bucket), &rPub, &rPriv)
	if len(found) != 1 || found[0].Sender != senderPub {
		t.Fatalf("recipient found %d invitations", len(found))
	}
	// Out-of-range bucket access is empty.
	if got := buckets.Invitations(m + 5); got != nil {
		t.Fatal("out-of-range bucket not empty")
	}
}

// TestNoiseGenPerBucket: each bucket receives its own Laplace draw of
// noise invitations with correct wire form.
func TestNoiseGenPerBucket(t *testing.T) {
	g := NoiseGen{Dist: noise.Fixed{N: 3}, Rand: rand.New(rand.NewSource(2))}
	const m = 4
	reqs := g.Generate(m)
	if len(reqs) != 3*m {
		t.Fatalf("got %d noise requests, want %d", len(reqs), 3*m)
	}
	perBucket := map[uint32]int{}
	for _, b := range reqs {
		if len(b) != RequestSize {
			t.Fatalf("noise request of %d bytes", len(b))
		}
		perBucket[binary.BigEndian.Uint32(b)]++
	}
	for i := uint32(0); i < m; i++ {
		if perBucket[i] != 3 {
			t.Fatalf("bucket %d got %d noise invitations, want 3", i, perBucket[i])
		}
	}
}

// TestNoiseUndecryptable: noise invitations never open for a real user.
func TestNoiseUndecryptable(t *testing.T) {
	g := NoiseGen{Dist: noise.Fixed{N: 20}, Rand: rand.New(rand.NewSource(3))}
	reqs := g.Generate(1)
	rPub, rPriv := box.KeyPairFromSeed([]byte("callee"))
	for _, b := range reqs {
		if _, ok := openInvitation(b[RequestSize-InvitationSize:], &rPub, box.NewDHKey(&rPriv)); ok {
			t.Fatal("noise invitation decrypted successfully")
		}
	}
}

// TestScanBucketMixed: the recipient picks out exactly its invitations
// from a bucket mixing real (for it), real (for others), and noise.
func TestScanBucketMixed(t *testing.T) {
	s1Pub, _ := box.KeyPairFromSeed([]byte("caller-1"))
	s2Pub, _ := box.KeyPairFromSeed([]byte("caller-2"))
	rPub, rPriv := box.KeyPairFromSeed([]byte("callee"))
	oPub, _ := box.KeyPairFromSeed([]byte("someone-else"))

	var bucket [][]byte
	for _, s := range []box.PublicKey{s1Pub, s2Pub} {
		inv := Invitation{Sender: s}
		sealed, err := inv.Seal(&rPub, nil)
		if err != nil {
			t.Fatal(err)
		}
		bucket = append(bucket, sealed)
	}
	other := Invitation{Sender: s1Pub}
	sealedOther, _ := other.Seal(&oPub, nil)
	bucket = append(bucket, sealedOther)
	bucket = append(bucket, bytes.Repeat([]byte{0xab}, InvitationSize)) // noise

	found := ScanBucket(bucket, &rPub, &rPriv)
	if len(found) != 2 {
		t.Fatalf("found %d invitations, want 2", len(found))
	}
	if found[0].Sender != s1Pub || found[1].Sender != s2Pub {
		t.Fatal("wrong senders recovered")
	}
}

func BenchmarkSealInvitation(b *testing.B) {
	senderPub, _ := box.KeyPairFromSeed([]byte("caller"))
	rPub, _ := box.KeyPairFromSeed([]byte("callee"))
	inv := Invitation{Sender: senderPub}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := inv.Seal(&rPub, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanBucket100(b *testing.B) {
	rPub, rPriv := box.KeyPairFromSeed([]byte("callee"))
	senderPub, _ := box.KeyPairFromSeed([]byte("caller"))
	var bucket [][]byte
	for i := 0; i < 99; i++ {
		bucket = append(bucket, bytes.Repeat([]byte{byte(i)}, InvitationSize))
	}
	inv := Invitation{Sender: senderPub}
	sealed, _ := inv.Seal(&rPub, nil)
	bucket = append(bucket, sealed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := ScanBucket(bucket, &rPub, &rPriv); len(got) != 1 {
			b.Fatal("scan failed")
		}
	}
}

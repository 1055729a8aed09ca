package x25519_test

import (
	"bytes"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math/big"
	"slices"
	"sync"
	"testing"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/crypto/x25519"
)

var p = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// leInt and uBytes convert between 32 little-endian bytes and an integer
// (which may be ≥ p, or have bit 255 set).
func leInt(u []byte) *big.Int {
	be := slices.Clone(u)
	slices.Reverse(be)
	return new(big.Int).SetBytes(be)
}

func uBytes(v *big.Int) [32]byte {
	var out [32]byte
	v.FillBytes(out[:])
	slices.Reverse(out[:])
	return out
}

// onTwist is the independent answer to "has u an Edwards image": u is a
// point of Curve25519 iff u³ + Au² + u is a square mod p (zero included),
// and of its quadratic twist otherwise.
func onTwist(u *[32]byte) bool {
	le := *u
	le[31] &= 127
	x := new(big.Int).Mod(leInt(le[:]), p)
	rhs := new(big.Int).Mul(x, x)
	rhs.Add(rhs, new(big.Int).Mul(big.NewInt(486662), x))
	rhs.Add(rhs, big.NewInt(1))
	rhs.Mul(rhs, x)
	return big.Jacobi(rhs.Mod(rhs, p), p) == -1
}

func hex32(t testing.TB, s string) [32]byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		t.Fatalf("bad hex %q", s)
	}
	return [32]byte(b)
}

// ladder is crypto/ecdh's X25519(scalar, u): the output, or all zeros and
// an error for the low-order result it refuses.
func ladder(t testing.TB, scalar, u *[32]byte) ([32]byte, error) {
	k, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		t.Fatal(err)
	}
	pk, err := ecdh.X25519().NewPublicKey(u[:])
	if err != nil {
		t.Fatal(err)
	}
	out, err := k.ECDH(pk)
	if err != nil {
		return [32]byte{}, err
	}
	return [32]byte(out), nil
}

// one is a batch of one, for the ladder.
func one(scalar, u *[32]byte) [32]byte {
	var out [32]byte
	x25519.Ladder([]*[32]byte{&out}, scalar, []*[32]byte{u})
	return out
}

// forceScalar makes Ladder and MulBatch run their scalar code until
// restore is called.
func forceScalar() (restore func()) {
	saved := x25519.IFMA
	x25519.IFMA = false
	return func() { x25519.IFMA = saved }
}

// paths runs f on the IFMA kernels, the ladder's and the comb's (on a CPU
// without them, an "ifma" row skips, naming what the CPU lacks) and again
// as "scalar", on the scalar code, forced.
func paths(t *testing.T, f func(t *testing.T)) {
	if x25519.IFMA {
		f(t)
	} else {
		t.Run("ifma", func(t *testing.T) { t.Skip("no IFMA kernel: " + x25519.WhyNoIFMA) })
	}
	t.Run("scalar", func(t *testing.T) {
		defer forceScalar()()
		f(t)
	})
}

// checkLadder holds the ladder to crypto/ecdh's, error for error: an
// error there is the all-zero output here. u runs alone and in a pair, so
// on the IFMA path it runs on the scalar ladder (a group of one) and in a
// lane.
func checkLadder(t testing.TB, scalar, u *[32]byte) {
	t.Helper()
	want, err := ladder(t, scalar, u)
	var got, other [32]byte
	h := honest()
	x25519.Ladder([]*[32]byte{&got, &other}, scalar, []*[32]byte{u, &h.points[0]})
	if alone := one(scalar, u); alone != want || got != want {
		t.Fatalf("scalar %x, u=%x: ladder %x, in a pair %x, crypto/ecdh %x (%v)", scalar, u, alone, got, want, err)
	}
}

// check is the differential: the comb refuses u exactly when u is a twist
// point, and otherwise the base and peer tables give the ladder's bytes —
// and so do box.NewPeer and box.Agree, error for error, against the
// ephemeral DHKey's Precompute under the same scalar. The ported ladder
// gives crypto/ecdh's bytes for every u, twist points included.
func check(t testing.TB, scalar, u *[32]byte) {
	t.Helper()
	checkLadder(t, scalar, u)
	twist := onTwist(u)
	table, err := x25519.NewTable(u)
	if (err != nil) != twist {
		t.Fatalf("u=%x: NewTable error %v, twist point %v", u, err, twist)
	}
	peer, err := box.NewPeer((*box.PublicKey)(u))
	if (err != nil) != twist {
		t.Fatalf("u=%x: NewPeer error %v, twist point %v", u, err, twist)
	}

	eph, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		t.Fatal(err)
	}
	var pub [32]byte
	x25519.BaseTable().Mul(&pub, scalar)
	if !bytes.Equal(pub[:], eph.PublicKey().Bytes()) {
		t.Fatalf("scalar %x: base comb %x, ladder %x", scalar, pub, eph.PublicKey().Bytes())
	}
	if twist {
		return
	}

	want, ladderErr := ladder(t, scalar, u)
	var got [32]byte
	table.Mul(&got, scalar)
	if got != want {
		t.Fatalf("scalar %x, u=%x: comb %x, ladder %x (%v)", scalar, u, got, want, ladderErr)
	}

	wantKey, wantErr := box.Precompute((*box.PublicKey)(u), (*box.PrivateKey)(scalar))
	a := []box.Agreement{{Key: *scalar}}
	err = box.Agree(a, []*box.Peer{peer})
	if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, box.ErrKeyExchange)) {
		t.Fatalf("scalar %x, u=%x: Agree error %v, Precompute error %v", scalar, u, err, wantErr)
	}
	if err == nil && (a[0].Key != *wantKey || [32]byte(a[0].Public) != pub) {
		t.Fatalf("scalar %x, u=%x: Agree gave key %x under %x, want %x under %x", scalar, u, a[0].Key, a[0].Public, *wantKey, pub)
	}
}

// honest is MaxBatch honest public keys and their tables, built once.
var honest = sync.OnceValue(func() (h struct {
	points [x25519.MaxBatch][32]byte
	tables [x25519.MaxBatch]*x25519.Table
}) {
	for i := range h.points {
		pub, _ := box.KeyPairFromSeed([]byte{'h', byte(i)})
		h.points[i] = pub
		var err error
		if h.tables[i], err = x25519.NewTable(&h.points[i]); err != nil {
			panic(err)
		}
	}
	return h
})

// checkBatched is the batch differential: u sits at positions 0, 7 and 15
// of a full ladder batch (one scalar) and, where it has a table, of a full
// comb batch (a scalar per pair), honest points filling the rest; every
// element must be its batch of one, so a u that is low-order, zero or
// anything else changes no other element.
func checkBatched(t testing.TB, scalar, u *[32]byte) {
	t.Helper()
	h := honest()
	table, tableErr := x25519.NewTable(u)
	var out [x25519.MaxBatch][32]byte
	var outs, points, scalars [x25519.MaxBatch]*[32]byte
	var tables [x25519.MaxBatch]*x25519.Table
	var keys [x25519.MaxBatch][32]byte
	for i := range points {
		outs[i], points[i], tables[i] = &out[i], &h.points[i], h.tables[i]
		keys[i] = *scalar
		keys[i][i] ^= 0x55
		scalars[i] = &keys[i]
	}
	for _, i := range []int{0, 7, 15} {
		points[i] = u
		if tableErr == nil {
			tables[i] = table
		}
	}
	x25519.Ladder(outs[:], scalar, points[:])
	for i := range out {
		if want := one(scalar, points[i]); out[i] != want {
			t.Fatalf("scalar %x, u=%x: ladder batch element %d is %x, alone %x", scalar, u, i, out[i], want)
		}
	}
	x25519.MulBatch(outs[:], tables[:], scalars[:])
	for i := range out {
		var want [32]byte
		tables[i].Mul(&want, scalars[i])
		if out[i] != want {
			t.Fatalf("scalar %x, u=%x: comb batch element %d is %x, alone %x", scalar, u, i, out[i], want)
		}
	}
}

// special is one u at the edges of the map or of the field; twist says
// whether NewPeer refuses it — those, and only those, are twist points.
type special struct {
	name  string
	u     [32]byte
	twist bool
}

// specialU lists the edge values, each also with bit 255 set (which X25519
// ignores) and, below 19, as its non-canonical twin u + p.
func specialU(t testing.TB) []special {
	var out []special
	add := func(name string, v *big.Int, twist bool) {
		u := uBytes(v)
		out = append(out, special{name, u, twist})
		u[31] |= 0x80
		out = append(out, special{name + " | 2^255", u, twist})
		if v.Cmp(big.NewInt(19)) < 0 {
			out = append(out, special{name + " + p", uBytes(new(big.Int).Add(v, p)), twist})
		}
	}
	add("0 (order 2)", big.NewInt(0), false)
	add("1 (order 4)", big.NewInt(1), false)
	add("2", big.NewInt(2), true)
	add("3", big.NewInt(3), true)
	add("9 (the base point)", big.NewInt(9), false)
	add("p − 1 = −1 (the map's pole)", new(big.Int).Sub(p, big.NewInt(1)), true)
	add("p ≡ 0", new(big.Int).Set(p), false)
	add("p + 1 ≡ 1", new(big.Int).Add(p, big.NewInt(1)), false)
	add("2^255 − 1 ≡ 18", new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1)), false)
	for _, h := range []string{
		"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
		"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	} {
		u := hex32(t, h)
		add("order 8, "+h[:8], leInt(u[:]), false)
	}
	return out
}

// rfc7748 is RFC 7748 §5.2's two single-exchange vectors.
var rfc7748 = []struct{ scalar, u, out string }{
	{"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
		"e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
		"c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
	{"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
		"e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
		"95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
}

// TestLadderMatchesECDH holds the ported ladder to RFC 7748 and to
// crypto/ecdh's: §5.2's vectors, its 1- and 1000-iteration ones, the
// special u values under the clamping-edge scalars and random ones, and
// random scalar/point pairs, twist points included; on both paths.
func TestLadderMatchesECDH(t *testing.T) { paths(t, ladderMatchesECDH) }

func ladderMatchesECDH(t *testing.T) {
	for _, v := range rfc7748 {
		scalar, u, out := hex32(t, v.scalar), hex32(t, v.u), hex32(t, v.out)
		if got := one(&scalar, &u); got != out {
			t.Fatalf("ladder %x, RFC 7748 %x", got, out)
		}
		checkLadder(t, &scalar, &u)
	}
	// k = u = 9; each iteration sets k, u = X25519(k, u), k.
	k, u := [32]byte{9}, [32]byte{9}
	for i := 1; i <= 1000; i++ {
		k, u = one(&k, &u), k
		want := map[int]string{
			1:    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
			1000: "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51",
		}[i]
		if want != "" && k != hex32(t, want) {
			t.Fatalf("after %d iterations: %x, RFC 7748 %s", i, k, want)
		}
	}

	var zeros, ones [32]byte
	for i := range ones {
		ones[i] = 0xff
	}
	for _, s := range specialU(t) {
		checkLadder(t, &zeros, &s.u)
		checkLadder(t, &ones, &s.u)
		for i := 0; i < 4; i++ {
			var scalar [32]byte
			rand.Read(scalar[:])
			checkLadder(t, &scalar, &s.u)
		}
	}
	for i := 0; i < 300; i++ {
		var scalar, u [32]byte
		rand.Read(scalar[:])
		rand.Read(u[:])
		checkLadder(t, &scalar, &u)
	}
}

// TestCombMatchesECDH holds the comb to crypto/ecdh's ladder: RFC 7748
// §5.2's vectors, the special u values under the clamping-edge scalars
// (all zeros, all 0xff) and random ones, random scalar/point pairs — half
// of them on the twist — and honest public keys, which are never refused;
// on both paths.
func TestCombMatchesECDH(t *testing.T) { paths(t, combMatchesECDH) }

func combMatchesECDH(t *testing.T) {
	for _, v := range rfc7748 {
		scalar, u, out := hex32(t, v.scalar), hex32(t, v.u), hex32(t, v.out)
		if want, err := ladder(t, &scalar, &u); err != nil || want != out {
			t.Fatalf("ladder disagrees with RFC 7748: %x, %v", want, err)
		}
		check(t, &scalar, &u)
	}

	var zeros, ones [32]byte
	for i := range ones {
		ones[i] = 0xff
	}
	for _, s := range specialU(t) {
		if onTwist(&s.u) != s.twist {
			t.Fatalf("u = %s: on the twist %v, the table says %v", s.name, onTwist(&s.u), s.twist)
		}
		check(t, &zeros, &s.u)
		check(t, &ones, &s.u)
		for i := 0; i < 4; i++ {
			var scalar [32]byte
			rand.Read(scalar[:])
			check(t, &scalar, &s.u)
		}
	}

	twists := 0
	for i := 0; i < 300; i++ {
		var scalar, u [32]byte
		rand.Read(scalar[:])
		rand.Read(u[:])
		if onTwist(&u) {
			twists++
		}
		check(t, &scalar, &u)
	}
	if twists < 100 || twists > 200 {
		t.Fatalf("%d of 300 random u on the twist: the oracle is off", twists)
	}

	for i := 0; i < 20; i++ {
		pub, _, err := box.GenerateKey(nil)
		if err != nil {
			t.Fatal(err)
		}
		if onTwist((*[32]byte)(&pub)) {
			t.Fatalf("an X25519 public key %x is a twist point", pub)
		}
		var scalar [32]byte
		rand.Read(scalar[:])
		check(t, &scalar, (*[32]byte)(&pub))
	}
}

// FuzzComb is TestCombMatchesECDH's differential and the batch
// differential, on the IFMA kernels and again on the scalar code, over
// fuzzed (scalar, u) pairs.
func FuzzComb(f *testing.F) {
	if !x25519.IFMA {
		f.Log("no IFMA kernel, the differentials run the scalar code twice: " + x25519.WhyNoIFMA)
	}
	ones := bytes.Repeat([]byte{0xff}, 32)
	for _, s := range specialU(f) {
		f.Add(ones, s.u[:])
		f.Add(make([]byte, 32), s.u[:])
	}
	f.Fuzz(func(t *testing.T, scalar, u []byte) {
		if len(scalar) != 32 || len(u) != 32 {
			t.Skip()
		}
		check(t, (*[32]byte)(scalar), (*[32]byte)(u))
		checkBatched(t, (*[32]byte)(scalar), (*[32]byte)(u))
		defer forceScalar()()
		check(t, (*[32]byte)(scalar), (*[32]byte)(u))
		checkBatched(t, (*[32]byte)(scalar), (*[32]byte)(u))
	})
}

// TestLadderLanes holds every batch size from 1 to MaxBatch to crypto/ecdh
// element by element, on both paths, across the 8-lane groups' edges: all
// honest points, then a low-order or zero point in each position in turn,
// each batch once into separate outputs and once with out aliasing points.
func TestLadderLanes(t *testing.T) {
	var scalar [32]byte
	rand.Read(scalar[:])
	var low [][32]byte
	for _, s := range specialU(t) {
		if _, err := ladder(t, &scalar, &s.u); err != nil {
			low = append(low, s.u)
		}
	}
	if len(low) < 8 {
		t.Fatalf("%d low-order u among the special values", len(low))
	}
	h := honest()
	paths(t, func(t *testing.T) {
		for n := 1; n <= x25519.MaxBatch; n++ {
			for bad := -1; bad < n; bad++ {
				pts := slices.Clone(h.points[:n])
				if bad >= 0 {
					pts[bad] = low[(n+bad)%len(low)]
				}
				want := make([][32]byte, n)
				for i := range pts {
					want[i], _ = ladder(t, &scalar, &pts[i])
				}
				out := make([][32]byte, n)
				outs, ptrs := make([]*[32]byte, n), make([]*[32]byte, n)
				for i := range pts {
					outs[i], ptrs[i] = &out[i], &pts[i]
				}
				x25519.Ladder(outs, &scalar, ptrs)
				x25519.Ladder(ptrs, &scalar, ptrs)
				for i := range pts {
					if out[i] != want[i] || pts[i] != want[i] {
						t.Fatalf("n=%d, low-order at %d: element %d is %x (aliased %x), crypto/ecdh %x", n, bad, i, out[i], pts[i], want[i])
					}
				}
			}
		}
	})
}

// TestCombLanes holds every batch size from 1 to MaxBatch to crypto/ecdh
// element by element, on both paths, across the lane groups' edges: the
// products on the base table, on one peer's, alternating between the two
// (interleaved) and in two runs (grouped). A zero output comes only from
// a low-order table, all of whose products are zero, so a low-order
// table takes each position in turn, alone (a group of its own) and with
// the next position too (a group of two lanes). Each batch runs once into
// separate outputs and once with out aliasing scalars.
func TestCombLanes(t *testing.T) {
	h := honest()
	base, peer := x25519.BaseTable(), h.tables[0]
	var lowT []*x25519.Table
	for _, s := range specialU(t) {
		var zero [32]byte
		if _, err := ladder(t, &zero, &s.u); err != nil && !s.twist {
			tab, err := x25519.NewTable(&s.u)
			if err != nil {
				t.Fatal(err)
			}
			lowT = append(lowT, tab)
		}
	}
	if len(lowT) < 8 {
		t.Fatalf("%d low-order u among the special values", len(lowT))
	}
	// crypto/ecdh's output for each position's scalar on each honest
	// table; a low-order table's is all zeros.
	var scalars, wantBase, wantPeer [x25519.MaxBatch][32]byte
	for i := range scalars {
		rand.Read(scalars[i][:])
		wantBase[i], _ = ladder(t, &scalars[i], &[32]byte{9})
		wantPeer[i], _ = ladder(t, &scalars[i], &h.points[0])
	}
	layouts := map[string]func(i, n int) bool{ // whether product i of n is the peer's
		"base":        func(i, n int) bool { return false },
		"peer":        func(i, n int) bool { return true },
		"interleaved": func(i, n int) bool { return i%2 == 1 },
		"grouped":     func(i, n int) bool { return i >= n/2 },
	}
	paths(t, func(t *testing.T) {
		for name, isPeer := range layouts {
			for n := 1; n <= x25519.MaxBatch; n++ {
				for bad := -1; bad < n; bad++ {
					for _, pair := range []bool{false, true} {
						if pair && (bad < 0 || bad+1 == n) {
							continue
						}
						tables := make([]*x25519.Table, n)
						want := make([][32]byte, n)
						for i := range tables {
							tables[i], want[i] = base, wantBase[i]
							if isPeer(i, n) {
								tables[i], want[i] = peer, wantPeer[i]
							}
						}
						if bad >= 0 {
							low := lowT[(n+bad)%len(lowT)]
							tables[bad], want[bad] = low, [32]byte{}
							if pair {
								tables[bad+1], want[bad+1] = low, [32]byte{}
							}
						}
						keys := slices.Clone(scalars[:n])
						out := make([][32]byte, n)
						outs, ptrs := make([]*[32]byte, n), make([]*[32]byte, n)
						for i := range keys {
							outs[i], ptrs[i] = &out[i], &keys[i]
						}
						x25519.MulBatch(outs, tables, ptrs)
						x25519.MulBatch(ptrs, tables, ptrs)
						for i := range keys {
							if out[i] != want[i] || keys[i] != want[i] {
								t.Fatalf("%s, n=%d, low-order at %d (pair %v): element %d is %x (aliased %x), crypto/ecdh %x", name, n, bad, pair, i, out[i], keys[i], want[i])
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkNewTable is what a downstream key costs a server once, at
// NewServer (box.NewPeer): it bounds setup_s.
func BenchmarkNewTable(b *testing.B) {
	pub, _, err := box.GenerateKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := x25519.NewTable((*[32]byte)(&pub)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMul against BenchmarkLadder is the comb's gain per scalar mult.
func BenchmarkMul(b *testing.B) {
	var scalar, out [32]byte
	rand.Read(scalar[:])
	table := x25519.BaseTable()
	for b.Loop() {
		table.Mul(&out, &scalar)
	}
}

// benchPaths runs f as "ifma", on the IFMA kernels where the CPU has
// them, and as "scalar", on the scalar code, forced.
func benchPaths(b *testing.B, f func(b *testing.B)) {
	if x25519.IFMA {
		b.Run("ifma", f)
	}
	b.Run("scalar", func(b *testing.B) {
		defer forceScalar()()
		f(b)
	})
}

// BenchmarkLadder is one exchange, a batch of one, which runs the scalar
// ladder on every path; BenchmarkLadderECDH is the standard library's for
// the same exchange.
func BenchmarkLadder(b *testing.B) {
	var scalar [32]byte
	rand.Read(scalar[:])
	u := honest().points[0]
	for b.Loop() {
		one(&scalar, &u)
	}
}

func BenchmarkLadderECDH(b *testing.B) {
	var scalar [32]byte
	rand.Read(scalar[:])
	k, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		b.Fatal(err)
	}
	u := honest().points[0]
	peer, err := ecdh.X25519().NewPublicKey(u[:])
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if _, err := k.ECDH(peer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLadderBatch is MaxBatch exchanges under one scalar, as a server
// unwraps a chunk of onions: on the IFMA kernel two groups of 8, and on the
// scalar code, against MaxBatch × BenchmarkLadder, what sharing one
// inversion saves.
func BenchmarkLadderBatch(b *testing.B) {
	var scalar [32]byte
	rand.Read(scalar[:])
	h := honest()
	var out [x25519.MaxBatch][32]byte
	var outs, points [x25519.MaxBatch]*[32]byte
	for i := range points {
		outs[i], points[i] = &out[i], &h.points[i]
	}
	benchPaths(b, func(b *testing.B) {
		for b.Loop() {
			x25519.Ladder(outs[:], &scalar, points[:])
		}
	})
}

// BenchmarkMulBatch is MaxBatch comb products, 8 on the generator's table
// and 8 on one peer's, as box.Agree orders a chunk of eight one-layer
// noise paths: on the IFMA kernel two full groups, and on the scalar
// code, against MaxBatch × BenchmarkMul, what sharing one inversion saves.
func BenchmarkMulBatch(b *testing.B) {
	h := honest()
	var out, keys [x25519.MaxBatch][32]byte
	var outs, scalars [x25519.MaxBatch]*[32]byte
	var tables [x25519.MaxBatch]*x25519.Table
	for i := range tables {
		rand.Read(keys[i][:])
		outs[i], scalars[i], tables[i] = &out[i], &keys[i], x25519.BaseTable()
		if i >= x25519.MaxBatch/2 {
			tables[i] = h.tables[0]
		}
	}
	benchPaths(b, func(b *testing.B) {
		for b.Loop() {
			x25519.MulBatch(outs[:], tables[:], scalars[:])
		}
	})
}

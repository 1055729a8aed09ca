package deaddrop

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func id(b byte) ID {
	var i ID
	i[0] = b
	return i
}

func TestPairExchange(t *testing.T) {
	tab := NewTable(2)
	a := tab.Add(id(1), []byte("from alice"))
	b := tab.Add(id(1), []byte("from bob.."))
	replies := tab.Exchange()
	if string(replies[a]) != "from bob.." {
		t.Fatalf("alice got %q", replies[a])
	}
	if string(replies[b]) != "from alice" {
		t.Fatalf("bob got %q", replies[b])
	}
}

func TestSingleGetsZeros(t *testing.T) {
	tab := NewTable(1)
	a := tab.Add(id(1), []byte("lonely message"))
	replies := tab.Exchange()
	if len(replies[a]) != len("lonely message") {
		t.Fatalf("reply length %d, want %d", len(replies[a]), len("lonely message"))
	}
	if !bytes.Equal(replies[a], make([]byte, 14)) {
		t.Fatalf("reply not zero: %q", replies[a])
	}
}

func TestManyDropsIndependent(t *testing.T) {
	tab := NewTable(6)
	a1 := tab.Add(id(1), []byte("a1"))
	b1 := tab.Add(id(2), []byte("b1"))
	a2 := tab.Add(id(1), []byte("a2"))
	c1 := tab.Add(id(3), []byte("c1"))
	b2 := tab.Add(id(2), []byte("b2"))
	replies := tab.Exchange()
	if string(replies[a1]) != "a2" || string(replies[a2]) != "a1" {
		t.Fatal("drop 1 mismatched")
	}
	if string(replies[b1]) != "b2" || string(replies[b2]) != "b1" {
		t.Fatal("drop 2 mismatched")
	}
	if !bytes.Equal(replies[c1], []byte{0, 0}) {
		t.Fatal("drop 3 single not zeroed")
	}
}

// TestAdversarialTripleAccess: three accesses to one drop pair the first
// two; the third gets zeros (footnote 6 — only adversaries collide).
func TestAdversarialTripleAccess(t *testing.T) {
	tab := NewTable(3)
	a := tab.Add(id(9), []byte("aa"))
	b := tab.Add(id(9), []byte("bb"))
	c := tab.Add(id(9), []byte("cc"))
	replies := tab.Exchange()
	if string(replies[a]) != "bb" || string(replies[b]) != "aa" {
		t.Fatal("first pair not exchanged")
	}
	if !bytes.Equal(replies[c], []byte{0, 0}) {
		t.Fatalf("odd request got %q, want zeros", replies[c])
	}
}

func TestQuadAccessPairsSequentially(t *testing.T) {
	tab := NewTable(4)
	var idxs [4]int
	for i := range idxs {
		idxs[i] = tab.Add(id(7), []byte{byte('a' + i)})
	}
	replies := tab.Exchange()
	if replies[idxs[0]][0] != 'b' || replies[idxs[1]][0] != 'a' {
		t.Fatal("first pair wrong")
	}
	if replies[idxs[2]][0] != 'd' || replies[idxs[3]][0] != 'c' {
		t.Fatal("second pair wrong")
	}
}

func TestHistogram(t *testing.T) {
	tab := NewTable(7)
	tab.Add(id(1), []byte("x")) // single
	tab.Add(id(2), []byte("x")) // pair
	tab.Add(id(2), []byte("x"))
	tab.Add(id(3), []byte("x")) // triple
	tab.Add(id(3), []byte("x"))
	tab.Add(id(3), []byte("x"))
	tab.Add(id(4), []byte("x")) // single
	m1, m2, more := tab.Histogram()
	if m1 != 2 || m2 != 1 || more != 1 {
		t.Fatalf("histogram (%d,%d,%d), want (2,1,1)", m1, m2, more)
	}
}

func TestEmptyTable(t *testing.T) {
	tab := NewTable(0)
	if got := tab.Exchange(); len(got) != 0 {
		t.Fatalf("exchange on empty table: %d replies", len(got))
	}
	m1, m2, more := tab.Histogram()
	if m1 != 0 || m2 != 0 || more != 0 {
		t.Fatal("empty histogram not zero")
	}
}

// TestExchangeInvariants is a property test: every reply has the same
// length as its request's payload, paired drops swap payloads, and the
// histogram counts sum to the number of distinct drops.
func TestExchangeInvariants(t *testing.T) {
	f := func(assign []uint8) bool {
		tab := NewTable(len(assign))
		payloads := make([][]byte, len(assign))
		for i, a := range assign {
			p := make([]byte, 8)
			rand.Read(p)
			payloads[i] = p
			tab.Add(id(a%16), p)
		}
		replies := tab.Exchange()
		if len(replies) != len(assign) {
			return false
		}
		for i := range replies {
			if len(replies[i]) != len(payloads[i]) {
				return false
			}
		}
		m1, m2, more := tab.Histogram()
		drops := map[uint8]int{}
		for _, a := range assign {
			drops[a%16]++
		}
		distinct := 0
		for range drops {
			distinct++
		}
		return m1+m2+more == distinct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExchange10k(b *testing.B) {
	payload := make([]byte, 256)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tab := NewTable(10000)
		for j := 0; j < 5000; j++ {
			var d ID
			d[0], d[1] = byte(j), byte(j>>8)
			tab.Add(d, payload)
			tab.Add(d, payload)
		}
		b.StartTimer()
		tab.Exchange()
	}
}

func TestShardOfDeterministicAndInRange(t *testing.T) {
	for _, shards := range []int{-3, 0, 1, 2, 8, 17} {
		for trial := 0; trial < 100; trial++ {
			var d ID
			rand.Read(d[:])
			s := ShardOf(d, shards)
			if s < 0 || (s >= shards && s != 0) {
				t.Fatalf("shard %d out of range [0,%d)", s, shards)
			}
			if s != ShardOf(d, shards) {
				t.Fatal("ShardOf not deterministic")
			}
		}
	}
	// The rule itself: the leading 64 bits, big-endian, mod the count.
	d := ID{7: 11}
	if got := ShardOf(d, 4); got != 3 {
		t.Fatalf("ShardOf(…0b, 4) = %d, want 3", got)
	}
}

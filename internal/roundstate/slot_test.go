package roundstate

// Crash-consistency tests for the two-slot file: torn writes, damaged
// slots, random commit/close/reopen histories, and the allocation budget
// of a commit. The images here are built by slotImage, written from the
// package comment's layout table rather than by calling the encoder, so
// the two have to agree on every byte.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// slotImage is one 512-byte slot holding payload under sequence seq.
func slotImage(seq uint64, payload string) []byte {
	b := make([]byte, 512)
	copy(b, "VZRS")
	binary.BigEndian.PutUint64(b[4:], seq)
	binary.BigEndian.PutUint32(b[12:], uint32(len(payload)))
	copy(b[16:], payload)
	binary.BigEndian.PutUint32(b[16+len(payload):], crc32.ChecksumIEEE(b[:16+len(payload)]))
	return b
}

// blankSlot is a slot no commit has reached yet.
func blankSlot() []byte { return make([]byte, 512) }

// writeSlots writes a state file of the given slots (or raw pieces).
func writeSlots(t testing.TB, path string, pieces ...[]byte) {
	t.Helper()
	if err := os.WriteFile(path, bytes.Join(pieces, nil), 0o600); err != nil {
		t.Fatal(err)
	}
}

// flipBit is img with one bit of byte at inverted.
func flipBit(img []byte, at int) []byte {
	img = bytes.Clone(img)
	img[at] ^= 0x10
	return img
}

// openLast opens path and reports the convo/dial pair it loaded.
func openLast(t testing.TB, path string) (convo, dial uint64, err error) {
	t.Helper()
	c, err := OpenCounters(path)
	if err == nil {
		convo, dial = c.Last(ConvoCounter), c.Last(DialCounter)
		c.Close()
	}
	return
}

// TestSlotLayout pins the encoder to the documented bytes: what Commit
// writes is what slotImage builds from the layout table, first commit in
// slot 0, second in slot 1, third back in slot 0.
func TestSlotLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	c, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check := func(want ...[]byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if img := bytes.Join(want, nil); !bytes.Equal(got, img) {
			t.Fatalf("file is\n%q\nwant\n%q", got, img)
		}
	}
	check(blankSlot(), blankSlot())
	for _, step := range []struct {
		name  string
		round uint64
		want  [2][]byte
	}{
		{DialCounter, 3, [2][]byte{slotImage(1, "dial 3\n"), blankSlot()}},
		{ConvoCounter, 12345678, [2][]byte{slotImage(1, "dial 3\n"), slotImage(2, "convo 12345678\ndial 3\n")}},
		// A shorter payload over a longer one leaves no stale tail.
		{"a", 1, [2][]byte{slotImage(3, "a 1\nconvo 12345678\ndial 3\n"), slotImage(2, "convo 12345678\ndial 3\n")}},
	} {
		if err := c.Commit(step.name, step.round); err != nil {
			t.Fatal(err)
		}
		check(step.want[0], step.want[1])
	}
}

// TestTornWriteTable: commit N, then let every prefix of commit N+1's
// slot image — 0 to 512 bytes — land over the older slot, as a crash
// mid-write would leave it. The store opens at N or at N+1, never at
// anything else and never with an error, and the commit after the reopen
// is readable. N runs over both slots as the target and over a payload
// that grows a digit (9 → 10) so old and new images differ in length.
func TestTornWriteTable(t *testing.T) {
	for _, n := range []uint64{1, 2, 9, 10} {
		before, after, slot := tearPair(t, func(c *Counters) {
			for r := uint64(1); r <= n; r++ {
				commit(t, c, ConvoCounter, r)
			}
			commit(t, c, DialCounter, 4)
		}, func(c *Counters) { commit(t, c, ConvoCounter, n+1) })
		for cut := 0; cut <= slotSize; cut++ {
			got := checkTear(t, before, after, slot, cut, n, n+1, 4)
			if cut == 0 && got != n || cut == slotSize && got != n+1 {
				t.Fatalf("N=%d cut %d: opened at %d", n, cut, got)
			}
		}
	}
}

func commit(t testing.TB, c *Counters, name string, round uint64) {
	t.Helper()
	if err := c.Commit(name, round); err != nil {
		t.Fatal(err)
	}
}

// tearPair runs setup on a fresh Counters file, snapshots it, runs next
// (one commit) and snapshots it again: the two file images and the slot
// the commit went to.
func tearPair(t testing.TB, setup, next func(*Counters)) (before, after []byte, slot int) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r")
	c, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	setup(c)
	if before, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	next(c)
	if after, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	same0 := bytes.Equal(after[:slotSize], before[:slotSize])
	same1 := bytes.Equal(after[slotSize:], before[slotSize:])
	if same0 == same1 {
		t.Fatalf("one commit must rewrite exactly one slot")
	}
	if same0 {
		slot = 1
	}
	return before, after, slot
}

// checkTear splices the first cut bytes of after's slot over before's,
// reopens, and requires the convo counter at old or new and dial
// untouched; then commits once more and requires that to survive a
// reopen. It returns the convo counter the torn file opened at.
func checkTear(t testing.TB, before, after []byte, slot, cut int, old, new, dial uint64) uint64 {
	t.Helper()
	img := bytes.Clone(before)
	off := slot * slotSize
	copy(img[off:off+cut], after[off:])
	path := filepath.Join(t.TempDir(), "r")
	writeSlots(t, path, img)
	c, err := OpenCounters(path)
	if err != nil {
		t.Fatalf("cut %d: torn write refused: %v", cut, err)
	}
	got := c.Last(ConvoCounter)
	if got != old && got != new || c.Last(DialCounter) != dial {
		t.Fatalf("cut %d: opened at convo %d dial %d, want convo %d or %d, dial %d", cut, got, c.Last(DialCounter), old, new, dial)
	}
	commit(t, c, ConvoCounter, new+1)
	c.Close()
	c2, err := OpenCounters(path)
	if err != nil {
		t.Fatalf("cut %d: commit after a torn write unreadable: %v", cut, err)
	}
	defer c2.Close()
	if c2.Last(ConvoCounter) != new+1 || c2.Last(DialCounter) != dial {
		t.Fatalf("cut %d: after recommit convo %d dial %d, want %d/%d", cut, c2.Last(ConvoCounter), c2.Last(DialCounter), new+1, dial)
	}
	return got
}

// TestSlotDamageTable: one damaged slot loses to the intact one, two
// lose the file, and a checksummed slot that no commit could have
// written — or a file of the wrong length — is refused outright.
func TestSlotDamageTable(t *testing.T) {
	older, newer := slotImage(3, "convo 7\n"), slotImage(4, "convo 8\n")
	withLen := func(b []byte, n uint32) []byte {
		b = bytes.Clone(b)
		binary.BigEndian.PutUint32(b[12:], n)
		return b
	}
	damages := map[string]func([]byte) []byte{
		"magic":        func(b []byte) []byte { return flipBit(b, 0) },
		"sequence":     func(b []byte) []byte { return flipBit(b, 11) },
		"length":       func(b []byte) []byte { return flipBit(b, 15) },
		"payload":      func(b []byte) []byte { return flipBit(b, 22) },
		"checksum":     func(b []byte) []byte { return flipBit(b, 16+8+3) },
		"length-past":  func(b []byte) []byte { return withLen(b, 493) },
		"length-huge":  func(b []byte) []byte { return withLen(b, math.MaxUint32) },
		"zeroed":       func([]byte) []byte { return blankSlot() },
		"half-written": func(b []byte) []byte { return append(bytes.Clone(b[:20]), make([]byte, 492)...) },
	}
	path := filepath.Join(t.TempDir(), "r")
	for name, damage := range damages {
		writeSlots(t, path, older, damage(newer))
		if convo, _, err := openLast(t, path); err != nil || convo != 7 {
			t.Errorf("%s in the newer slot: opened at %d, %v; want the older slot's 7", name, convo, err)
		}
		writeSlots(t, path, damage(older), newer)
		if convo, _, err := openLast(t, path); err != nil || convo != 8 {
			t.Errorf("%s in the older slot: opened at %d, %v; want the newer slot's 8", name, convo, err)
		}
		if name == "zeroed" {
			continue // two blank slots are a fresh store
		}
		writeSlots(t, path, damage(older), damage(newer))
		if _, _, err := openLast(t, path); err == nil {
			t.Errorf("%s in both slots: opened, want it refused", name)
		}
		// A first commit that tore has no older slot to fall back on.
		writeSlots(t, path, damage(slotImage(1, "convo 1\n")), blankSlot())
		if _, _, err := openLast(t, path); err == nil {
			t.Errorf("%s in the only slot written: opened, want it refused", name)
		}
	}
	// Padding is not interpreted.
	writeSlots(t, path, older, flipBit(newer, 500))
	if convo, _, err := openLast(t, path); err != nil || convo != 8 {
		t.Errorf("flipped padding bit: opened at %d, %v; want 8", convo, err)
	}

	refused := map[string][][]byte{
		"equal-sequences":        {slotImage(3, "convo 7\n"), slotImage(3, "convo 8\n")},
		"sequence-zero":          {blankSlot(), slotImage(0, "convo 7\n")},
		"sequence-zero-beside":   {slotImage(3, "convo 7\n"), slotImage(0, "convo 9\n")},
		"sequence-exhausted":     {slotImage(math.MaxUint64, "convo 7\n"), blankSlot()},
		"odd-sequence-in-slot1":  {blankSlot(), slotImage(3, "convo 7\n")},
		"even-sequence-in-slot0": {slotImage(4, "convo 8\n"), slotImage(3, "convo 7\n")},
		"trailing-byte":          {older, newer, {0}},
		"trailing-slot":          {older, newer, slotImage(5, "convo 9\n")},
		"one-slot-only":          {slotImage(1, "convo 7\n")},
		"short-by-one":           {older, newer[:511]},
		"zeros-too-long":         {blankSlot(), blankSlot(), {0}},
		"short-nonzero":          {[]byte("convo 7\n")},
		// A shard's state file as written before PR 24, its one counter a
		// bare "<n>\n": both slots intact, and never read as zero.
		"pre-PR-24-shard":       {slotImage(1, "41\n"), slotImage(2, "42\n")},
		"pre-PR-24-shard-first": {slotImage(1, "1\n"), blankSlot()},
	}
	for name, pieces := range refused {
		writeSlots(t, path, pieces...)
		if convo, dial, err := openLast(t, path); err == nil {
			t.Errorf("%s: opened at %d/%d, want it refused", name, convo, dial)
		}
	}
	// A slot with no counters in it is a valid file.
	writeSlots(t, path, slotImage(1, ""), blankSlot())
	if _, _, err := openLast(t, path); err != nil {
		t.Errorf("empty payload: %v", err)
	}

	// What a crash during creation leaves is a fresh store, and opening
	// it completes the creation.
	for name, img := range map[string][]byte{"empty": {}, "short-zeros": make([]byte, 300), "zeros": make([]byte, 1024)} {
		writeSlots(t, path, img)
		if convo, dial, err := openLast(t, path); err != nil || convo != 0 || dial != 0 {
			t.Errorf("%s: %d/%d %v; want a fresh store", name, convo, dial, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, make([]byte, 1024)) {
			t.Errorf("%s: after open the file holds %d bytes (%v), want 1024 zeros", name, len(got), err)
		}
	}
}

// TestRandomCommitReopen runs seeded random histories of commits, stale
// commits, closes and reopens over two names: no reopen ever sees a
// counter other than the highest value committed under it.
func TestRandomCommitReopen(t *testing.T) {
	histories := 1000
	if testing.Short() {
		histories = 100
	}
	dir := t.TempDir()
	for seed := 0; seed < histories; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		path := filepath.Join(dir, fmt.Sprint(seed))
		names := [2]string{ConvoCounter, DialCounter}
		var want [2]uint64
		c, err := OpenCounters(path)
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 4+rng.Intn(8); op++ {
			if rng.Intn(3) == 0 {
				c.Close()
				if c, err = OpenCounters(path); err != nil {
					t.Fatalf("seed %d op %d: reopen: %v", seed, op, err)
				}
			} else {
				// Mostly forward by a digit-changing stride, sometimes stale.
				i := rng.Intn(2)
				round := want[i] + uint64(rng.Intn(110))
				if rng.Intn(10) == 0 {
					round = want[i] - min(want[i], 10)
				}
				commit(t, c, names[i], round)
				want[i] = max(want[i], round)
			}
			if got := [2]uint64{c.Last(names[0]), c.Last(names[1])}; got != want {
				t.Fatalf("seed %d op %d: counters %v, want %v", seed, op, got, want)
			}
		}
		c.Close()
	}
}

// TestCommitAllocs: a commit encodes into the held slot buffer — names
// kept sorted at insert, strconv.AppendUint — so what is left is the
// os.Stat behind the same-file check (2 allocations on go1.24; the bound
// leaves room for another Stat), through Commit and through Advance. Before
// PR 20 (name slice + sort + fmt.Fprintf into a bytes.Buffer, then
// create/rename/open-dir) Counters.Commit allocated 16 times.
func TestCommitAllocs(t *testing.T) {
	c, err := OpenCounters(filepath.Join(t.TempDir(), "c"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	commit(t, c, DialCounter, 1)
	commit(t, c, ConvoCounter, 1)
	round := uint64(1)
	if n := testing.AllocsPerRun(50, func() {
		round++
		if err := c.Commit(ConvoCounter, round); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Counters.Commit allocates %v times, want at most 4", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		round++
		if err := c.Advance(ConvoCounter, round); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("Counters.Advance allocates %v times, want at most 4", n)
	}
}

// TestCommitFailsWhenFileReplaced: a state file deleted, or replaced by
// another at the same path, under a live store takes no further commit —
// the held descriptor would write where no restart looks.
func TestCommitFailsWhenFileReplaced(t *testing.T) {
	for _, replace := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "r")
		s, err := OpenCounters(path)
		if err != nil {
			t.Fatal(err)
		}
		commit(t, s, ConvoCounter, 1)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		if replace {
			writeSlots(t, path, blankSlot(), blankSlot())
		}
		if err := s.Commit(ConvoCounter, 2); err == nil {
			t.Fatalf("replace=%v: commit into an orphaned state file reported success", replace)
		}
		if s.Last(ConvoCounter) != 1 {
			t.Fatalf("replace=%v: in-memory counter advanced to %d past a failed commit", replace, s.Last(ConvoCounter))
		}
		s.Close()
	}
}

// TestOversizedCountersRefused: counters that no longer fit a slot fail
// the commit and leave the store as it was, in memory and on disk.
func TestOversizedCountersRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	c, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	commit(t, c, ConvoCounter, 5)
	long := make([]byte, 490)
	for i := range long {
		long[i] = 'x'
	}
	if err := c.Commit(string(long), 1); err == nil {
		t.Fatal("a payload past the slot committed")
	}
	if c.Last(string(long)) != 0 {
		t.Fatal("failed commit advanced its counter")
	}
	commit(t, c, ConvoCounter, 6)
	c.Close()
	if convo, _, err := openLast(t, path); err != nil || convo != 6 {
		t.Fatalf("after a refused oversized commit: convo %d, %v", convo, err)
	}
}

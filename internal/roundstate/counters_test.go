package roundstate

// Tests of the Advance / Commit guard over a memory-only and a file-backed
// Counters, and of the file's open, lock and failure behaviour;
// slot_test.go covers the bytes.

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestRoundStateAdvanceTable: one sequence of Advance and Commit calls,
// one set of answers, whether or not a file is behind the counters — and
// with a file, a refused write advances nothing, the same round passes
// once the write works, and a reopen sees what the guard accepted.
func TestRoundStateAdvanceTable(t *testing.T) {
	type step struct {
		commit bool // Commit, not Advance
		name   string
		round  uint64
		replay bool   // want ErrReplay
		last   uint64 // want Last(name) afterwards
	}
	steps := []step{
		{name: ConvoCounter, round: 0, replay: true, last: 0}, // round 0 is never newer
		{commit: true, name: ConvoCounter, round: 0, last: 0},
		{name: ConvoCounter, round: 5, last: 5},
		{name: ConvoCounter, round: 5, replay: true, last: 5}, // equal
		{name: ConvoCounter, round: 3, replay: true, last: 5}, // lower
		{commit: true, name: ConvoCounter, round: 5, last: 5}, // Commit: stale is a no-op
		{commit: true, name: ConvoCounter, round: 3, last: 5},
		{name: DialCounter, round: 0, replay: true, last: 0}, // the other name untouched
		{name: DialCounter, round: 1, last: 1},               // and numbered on its own
		{name: ConvoCounter, round: 6, last: 6},              // higher
		{commit: true, name: ConvoCounter, round: 9, last: 9},
		{name: ConvoCounter, round: 9, replay: true, last: 9}, // Commit consumed it for Advance too
		{name: DialCounter, round: 1, replay: true, last: 1},
	}
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "r")
	file, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for backing, c := range map[string]*Counters{"memory": new(Counters), "file": file} {
		for i, st := range steps {
			do := c.Advance
			if st.commit {
				do = c.Commit
			}
			err := do(st.name, st.round)
			if st.replay && !errors.Is(err, ErrReplay) || !st.replay && err != nil {
				t.Fatalf("%s step %d (%+v): %v", backing, i, st, err)
			}
			if got := c.Last(st.name); got != st.last {
				t.Fatalf("%s step %d (%+v): Last = %d", backing, i, st, got)
			}
		}
		if err := c.Advance("a b", 1); err == nil || errors.Is(err, ErrReplay) {
			t.Fatalf("%s: invalid name: %v", backing, err)
		}
	}

	// The state directory gone from its path: the write is refused, which
	// is not a replay, and nothing advances; back in place, the disk takes
	// the very same round.
	if err := os.Rename(dir, dir+".gone"); err != nil {
		t.Fatal(err)
	}
	if err := file.Advance(ConvoCounter, 10); err == nil || errors.Is(err, ErrReplay) {
		t.Fatalf("advance with the state directory gone: %v", err)
	}
	if got := file.Last(ConvoCounter); got != 9 {
		t.Fatalf("counter advanced to %d past a refused write", got)
	}
	if err := os.Rename(dir+".gone", dir); err != nil {
		t.Fatal(err)
	}
	if err := file.Advance(ConvoCounter, 10); err != nil {
		t.Fatalf("round 10 once the write works: %v", err)
	}
	file.Close()
	reopened, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if convo, dial := reopened.Last(ConvoCounter), reopened.Last(DialCounter); convo != 10 || dial != 1 {
		t.Fatalf("reopened at %d/%d, want 10/1", convo, dial)
	}
	if err := reopened.Advance(ConvoCounter, 10); !errors.Is(err, ErrReplay) {
		t.Fatalf("round 10 after the restart: %v, want ErrReplay", err)
	}
}

// TestRoundStateConcurrentAdvance: the check and the commit are one
// critical section — of many goroutines offering one round, exactly one is
// told to run it.
func TestRoundStateConcurrentAdvance(t *testing.T) {
	file, err := OpenCounters(filepath.Join(t.TempDir(), "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	for backing, c := range map[string]*Counters{"memory": new(Counters), "file": file} {
		for round := uint64(1); round <= 5; round++ {
			errs := make([]error, 16)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = c.Advance(ConvoCounter, round)
				}()
			}
			wg.Wait()
			won := 0
			for _, err := range errs {
				if err == nil {
					won++
				} else if !errors.Is(err, ErrReplay) {
					t.Fatalf("%s round %d: %v", backing, round, err)
				}
			}
			if won != 1 {
				t.Fatalf("%s round %d: %d of %d callers were told to run it", backing, round, won, len(errs))
			}
		}
	}
}

func TestCountersFreshStartAtZero(t *testing.T) {
	c, err := OpenCounters(filepath.Join(t.TempDir(), "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Last(ConvoCounter) != 0 || c.Last(DialCounter) != 0 {
		t.Fatalf("fresh counters = %d/%d", c.Last(ConvoCounter), c.Last(DialCounter))
	}
}

func TestCountersIndependentAndPersistent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	c, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	// The two protocols number rounds independently: committing one must
	// never move the other.
	if err := c.Commit(ConvoCounter, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(DialCounter, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ConvoCounter, 9); err != nil {
		t.Fatal(err)
	}
	if c.Last(ConvoCounter) != 9 || c.Last(DialCounter) != 2 {
		t.Fatalf("counters = %d/%d, want 9/2", c.Last(ConvoCounter), c.Last(DialCounter))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Last(ConvoCounter) != 9 || c2.Last(DialCounter) != 2 {
		t.Fatalf("reopened counters = %d/%d, want 9/2", c2.Last(ConvoCounter), c2.Last(DialCounter))
	}
}

func TestCountersNeverRegress(t *testing.T) {
	c, err := OpenCounters(filepath.Join(t.TempDir(), "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Commit(ConvoCounter, 7); err != nil {
		t.Fatal(err)
	}
	// Stale and duplicate commits are no-ops, not errors: a retried
	// round re-commits its number harmlessly.
	if err := c.Commit(ConvoCounter, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ConvoCounter, 7); err != nil {
		t.Fatal(err)
	}
	if c.Last(ConvoCounter) != 7 {
		t.Fatalf("Last = %d after stale commits, want 7", c.Last(ConvoCounter))
	}
}

func TestCountersRefuseCorruptFile(t *testing.T) {
	cases := map[string]string{
		"pre-PR-24-shard":  "42\n", // a shard's old single-counter payload
		"non-decimal":      "convo ten\n",
		"missing-value":    "convo\n",
		"empty-name":       " 5\n",
		"duplicate":        "convo 1\nconvo 2\n",
		"unterminated":     "convo 5",
		"trailing-garbage": "convo 5\n\x00\x00",
		"negative":         "convo -1\n",
		"plus-sign":        "convo +1\n",
		"space-in-name":    "a b 1\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "r")
			// Bare, as the text format that preceded the slots held it,
			// and as the payload of a slot whose checksum holds.
			if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
				t.Fatal(err)
			}
			if c, err := OpenCounters(path); err == nil {
				c.Close()
				t.Fatalf("corrupt file %q opened as zero counters — replay window reopened", content)
			}
			writeSlots(t, path, slotImage(1, content), blankSlot())
			if c, err := OpenCounters(path); err == nil {
				c.Close()
				t.Fatalf("corrupt payload %q opened as zero counters — replay window reopened", content)
			}
		})
	}
}

func TestCountersInvalidName(t *testing.T) {
	c, err := OpenCounters(filepath.Join(t.TempDir(), "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, name := range []string{"", "a b", "a\nb", "a\tb"} {
		if err := c.Commit(name, 1); err == nil {
			t.Fatalf("commit under invalid name %q succeeded", name)
		}
	}
}

func TestCountersDoubleOpenRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	c1, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	if c2, err := OpenCounters(path); err == nil {
		c2.Close()
		t.Fatal("second OpenCounters of a held file succeeded")
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := OpenCounters(path)
	if err != nil {
		t.Fatalf("open after release: %v", err)
	}
	c3.Close()
}

func TestCountersClosedRefusesCommit(t *testing.T) {
	c, err := OpenCounters(filepath.Join(t.TempDir(), "r"))
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Commit(ConvoCounter, 1); err == nil {
		t.Fatal("commit on a closed store succeeded")
	}
}

func TestCountersCommitFailureDoesNotAdvance(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCounters(filepath.Join(dir, "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ConvoCounter, 1); err == nil {
		t.Fatal("commit with the state directory gone reported success")
	}
	if c.Last(ConvoCounter) != 0 {
		t.Fatalf("in-memory counter advanced to %d past a failed commit", c.Last(ConvoCounter))
	}
}

// TestCommitFailsWhenDirectoryGone is the same refusal through Advance, the
// call a chain server and a shard make.
func TestCommitFailsWhenDirectoryGone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCounters(filepath.Join(dir, "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance(ConvoCounter, 1); err == nil || errors.Is(err, ErrReplay) {
		t.Fatalf("advance with the state directory gone: %v", err)
	}
	if c.Last(ConvoCounter) != 0 {
		t.Fatalf("in-memory counter advanced to %d past a failed commit", c.Last(ConvoCounter))
	}
}

func TestLeftoverTmpIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	c, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(ConvoCounter, 4); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// The rename-based format this one replaced left a .tmp behind when it
	// crashed between write and rename; a state directory may still hold
	// one. Reopening must see the committed counter, not the orphan.
	if err := os.WriteFile(path+".tmp", []byte("convo 9999\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Last(ConvoCounter) != 4 {
		t.Fatalf("Last = %d with orphan tmp present, want 4", c2.Last(ConvoCounter))
	}
}

func TestCountersConcurrentCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	c, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 10; i++ {
		wg.Add(2)
		go func(r uint64) {
			defer wg.Done()
			if err := c.Commit(ConvoCounter, r); err != nil {
				t.Errorf("convo commit %d: %v", r, err)
			}
		}(uint64(i))
		go func(r uint64) {
			defer wg.Done()
			if err := c.Commit(DialCounter, r); err != nil {
				t.Errorf("dial commit %d: %v", r, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	if c.Last(ConvoCounter) != 10 || c.Last(DialCounter) != 10 {
		t.Fatalf("counters = %d/%d, want 10/10", c.Last(ConvoCounter), c.Last(DialCounter))
	}
	c.Close()
	c2, err := OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.Last(ConvoCounter) != 10 || c2.Last(DialCounter) != 10 {
		t.Fatalf("disk counters = %d/%d, want 10/10", c2.Last(ConvoCounter), c2.Last(DialCounter))
	}
}

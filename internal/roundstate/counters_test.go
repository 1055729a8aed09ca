package roundstate

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

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
	// A Store and a Counters pointed at the same path must also exclude
	// each other — the lock is on the state file itself.
	if s, err := Open(path); err == nil {
		s.Close()
		t.Fatal("Store opened a path held by a live Counters")
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

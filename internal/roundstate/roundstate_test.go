package roundstate

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestFreshStoreStartsAtZero(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Last() != 0 {
		t.Fatalf("fresh store Last = %d", s.Last())
	}
}

func TestCommitSurvivesReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []uint64{1, 2, 7} {
		if err := s.Commit(r); err != nil {
			t.Fatalf("commit %d: %v", r, err)
		}
	}
	// A real process release is implicit on exit; in-process we must
	// drop the advisory lock before the "next process" opens the file.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Last() != 7 {
		t.Fatalf("reopened Last = %d, want 7", s2.Last())
	}
}

func TestCommitNeverRegresses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(9); err != nil {
		t.Fatal(err)
	}
	// Stale and duplicate commits are no-ops, not errors: a retried
	// round re-commits its number harmlessly.
	if err := s.Commit(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(9); err != nil {
		t.Fatal(err)
	}
	if s.Last() != 9 {
		t.Fatalf("Last = %d after stale commits, want 9", s.Last())
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Last() != 9 {
		t.Fatalf("disk Last = %d, want 9", s2.Last())
	}
}

func TestCorruptFileRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	// Bare, as the text format that preceded the slots held it (a valid
	// old-format counter is refused like a corrupt one: there is no
	// legacy reader), and as the payload of a slot whose checksum holds.
	for _, content := range []string{"not-a-counter\n", "42\n"} {
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); err == nil {
			t.Fatalf("state file %q opened as zero — replay window reopened", content)
		}
	}
	for _, payload := range []string{"not-a-counter\n", "42", " 42\n", "42\n\n", "convo 42\n"} {
		writeSlots(t, path, slotImage(1, payload), blankSlot())
		if _, err := Open(path); err == nil {
			t.Fatalf("slot payload %q opened — replay window reopened", payload)
		}
	}
}

func TestLeftoverTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(4); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The rename-based format this one replaced left a .tmp behind when it
	// crashed between write and rename; a state directory may still hold
	// one. Reopening must see the committed counter, not the orphan.
	if err := os.WriteFile(path+".tmp", []byte("9999\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Last() != 4 {
		t.Fatalf("Last = %d with orphan tmp present, want 4", s2.Last())
	}
}

func TestDoubleOpenRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	s1, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Two live stores on one counter would let both pass the replay
	// check for the same round; the second open must fail loudly.
	if s2, err := Open(path); err == nil {
		s2.Close()
		t.Fatal("second Open of a held round-state file succeeded")
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(path)
	if err != nil {
		t.Fatalf("open after release: %v", err)
	}
	s3.Close()
}

func TestClosedStoreRefusesCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Commit(1); err == nil {
		t.Fatal("commit on a closed store succeeded")
	}
}

func TestCommitFailsWhenDirectoryGone(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	s, err := Open(filepath.Join(dir, "r"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(1); err == nil {
		t.Fatal("commit with the state directory gone reported success")
	}
	if s.Last() != 0 {
		t.Fatalf("in-memory counter advanced to %d past a failed commit", s.Last())
	}
}

func TestConcurrentCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r")
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 1; i <= 20; i++ {
		wg.Add(1)
		go func(r uint64) {
			defer wg.Done()
			if err := s.Commit(r); err != nil {
				t.Errorf("commit %d: %v", r, err)
			}
		}(uint64(i))
	}
	wg.Wait()
	if s.Last() != 20 {
		t.Fatalf("Last = %d, want 20", s.Last())
	}
	s.Close()
	s2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Last() != 20 {
		t.Fatalf("disk Last = %d, want 20", s2.Last())
	}
}

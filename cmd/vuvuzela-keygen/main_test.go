package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vuvuzela/internal/pki"
)

// TestUserKeepsUnreadableDirectory: registering a user into a users.json
// that does not load fails and writes nothing, where it once replaced the
// file with a one-user directory and lost every user registered before.
// A users.json that does not exist is started.
func TestUserKeepsUnreadableDirectory(t *testing.T) {
	out := t.TempDir()
	for _, name := range []string{"alice", "bob"} {
		if err := userCmd([]string{"-name", name, "-out", out}); err != nil {
			t.Fatalf("registering %s: %v", name, err)
		}
	}
	dirPath := filepath.Join(out, "users.json")
	full, err := os.ReadFile(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	truncated := full[:len(full)/2]
	if err := os.WriteFile(dirPath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := userCmd([]string{"-name", "dave", "-out", out}); err == nil {
		t.Fatal("registering into a truncated users.json succeeded")
	}
	if after, _ := os.ReadFile(dirPath); !bytes.Equal(after, truncated) {
		t.Fatalf("users.json rewritten to %q", after)
	}
	if _, err := os.Stat(filepath.Join(out, "dave.key")); !os.IsNotExist(err) {
		t.Fatalf("dave.key written (stat: %v)", err)
	}

	// The file restored, registration goes on from it.
	if err := os.WriteFile(dirPath, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := userCmd([]string{"-name", "dave", "-out", out}); err != nil {
		t.Fatal(err)
	}
	dir, err := pki.Load(dirPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob", "dave"} {
		if _, err := dir.Lookup(name); err != nil {
			t.Fatal(err)
		}
	}
}

// snapshot reads every file in dir, by name.
func snapshot(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

// TestKeygenNeverOverwrites: a second chain or user run over live
// material fails and writes nothing, where it once replaced every key and
// chain.json, or a user's key and directory entry, without a word. Any
// one existing target is enough to refuse: a lone key file, a lone
// chain.json, a lone users.json entry.
func TestKeygenNeverOverwrites(t *testing.T) {
	out := t.TempDir()
	chain := []string{"-servers", "2", "-shards", "1", "-frontends", "1", "-out", out}
	if err := chainCmd(chain); err != nil {
		t.Fatal(err)
	}
	if err := userCmd([]string{"-name", "alice", "-out", out}); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, out)

	refused := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s over existing material succeeded", what)
		}
		after := snapshot(t, out)
		if len(after) != len(before) {
			t.Fatalf("%s: %d files, want %d", what, len(after), len(before))
		}
		for name, b := range before {
			if !bytes.Equal(after[name], b) {
				t.Fatalf("%s rewrote %s", what, name)
			}
		}
	}
	refused("chain", chainCmd(chain))
	refused("user", userCmd([]string{"-name", "alice", "-out", out}))

	// One target left is enough: only chain.json, only shard-0.key, only
	// alice's users.json entry (her key file gone).
	for _, keep := range []string{"chain.json", "shard-0.key"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, keep), before[keep], 0o600); err != nil {
			t.Fatal(err)
		}
		if err := chainCmd([]string{"-servers", "2", "-shards", "1", "-frontends", "1", "-out", dir}); err == nil {
			t.Fatalf("chain over a lone %s succeeded", keep)
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 1 {
			t.Fatalf("chain over a lone %s left %d files", keep, len(entries))
		}
	}
	if err := os.Remove(filepath.Join(out, "alice.key")); err != nil {
		t.Fatal(err)
	}
	delete(before, "alice.key")
	refused("user already in users.json", userCmd([]string{"-name", "alice", "-out", out}))
}

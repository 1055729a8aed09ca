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

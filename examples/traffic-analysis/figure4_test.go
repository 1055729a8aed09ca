package main

import "testing"

// TestStrawmanLeaksEverything: the single-server baseline reveals both
// conversing pairs in every round and never links the idle user.
func TestStrawmanLeaksEverything(t *testing.T) {
	const rounds = 5
	links := strawmanExperiment(rounds)
	if links[[2]string{"alice", "bob"}] != rounds {
		t.Fatalf("alice-bob linked %d times, want %d", links[[2]string{"alice", "bob"}], rounds)
	}
	if links[[2]string{"carol", "dave"}] != rounds {
		t.Fatalf("carol-dave linked %d times, want %d", links[[2]string{"carol", "dave"}], rounds)
	}
	if len(links) != 2 {
		t.Fatalf("spurious links: %v", links)
	}
}

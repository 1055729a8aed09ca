package sim

// End-to-end tests for the split entry tier over the fully networked
// in-memory deployment: clients behind stateless frontends, the
// frontend pipes into the coordinator, and the usual chain behind it.

import (
	"testing"
	"time"

	"vuvuzela/internal/coordinator"
)

// TestFrontNetRounds: a two-frontend deployment completes pipelined
// rounds with every client participating and every reply delivered —
// the same guarantee RunRounds enforces for the direct topology.
func TestFrontNetRounds(t *testing.T) {
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, Frontends: 2, Entry: coordinator.Config{ConvoWindow: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	rounds, err := cn.RunRounds(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 3 {
		t.Fatalf("delivered %d rounds, want 3", len(rounds))
	}
}

// TestFrontNetSingleFrontend: the degenerate one-frontend deployment
// also works (no demux ambiguity with a lone partial batch).
func TestFrontNetSingleFrontend(t *testing.T) {
	cn, err := NewChainNet(ChainNetConfig{Servers: 1, Frontends: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if _, err := cn.RunRounds(3, 2); err != nil {
		t.Fatal(err)
	}
}

// TestFrontNetFrontendRestart: a frontend crash between rounds loses
// nothing but its own clients' connections; a stateless replacement on
// the same address rejoins the deployment and the next swarm completes
// every round.
func TestFrontNetFrontendRestart(t *testing.T) {
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, Frontends: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	if _, err := cn.RunRounds(4, 2); err != nil {
		t.Fatal(err)
	}
	if err := cn.Restart(cn.FrontAddrs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := cn.RunRounds(4, 2); err != nil {
		t.Fatalf("rounds after frontend restart: %v", err)
	}
}

// TestFrontNetFrontendKilled: with one frontend dead, fresh clients
// land on the survivors and rounds still complete — the coordinator
// only waits for the pipes that exist.
func TestFrontNetFrontendKilled(t *testing.T) {
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, Frontends: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	cn.Kill(cn.FrontAddrs[0])
	start := time.Now()
	if _, err := cn.RunRounds(4, 2); err != nil {
		t.Fatal(err)
	}
	// The dead frontend must not cost the submit timeout either: the
	// coordinator's snapshot no longer contains its pipe.
	if elapsed := time.Since(start); elapsed >= 2*time.Second {
		t.Fatalf("rounds with a dead frontend took %v", elapsed)
	}
}

// TestFrontNetEntryRestart: the coordinator crashes and a durable
// replacement takes over; the stateless frontends reconnect their pipes
// on their own and the deployment resumes at the next round number.
func TestFrontNetEntryRestart(t *testing.T) {
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, Frontends: 2, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	first, err := cn.RunRounds(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.Restart(cn.EntryAddr); err != nil {
		t.Fatal(err)
	}
	second, err := cn.RunRounds(4, 2)
	if err != nil {
		t.Fatalf("rounds after entry restart: %v", err)
	}
	if second[0] <= first[len(first)-1] {
		t.Fatalf("round numbering went backwards across the entry restart: %v then %v", first, second)
	}
}

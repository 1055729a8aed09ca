package coordinator

// Unit tests for the coordinator's durable round numbering: a restarted
// entry must resume after the highest round it ever announced instead
// of re-issuing round 1 into a chain that already consumed it. The sim
// package drives the same path through a fully networked chain.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/transport"
)

// servedChainHead serves a single-server chain with its own durable
// counters, standing in for a chain that remembers consumed rounds across
// the coordinator's restarts, and returns the Config that reaches it.
func servedChainHead(t *testing.T) Config {
	t.Helper()
	store, err := roundstate.OpenCounters(filepath.Join(t.TempDir(), "chain.rounds"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	pub, priv := box.KeyPairFromSeed([]byte("coord-rs-chain"))
	mem := transport.NewMem()
	_, addrs, stop, err := mixnet.StartChain(mem, []box.PublicKey{pub}, []box.PrivateKey{priv},
		mixnet.Config{RoundState: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	return Config{Net: mem, ChainAddr: addrs[0], ChainPub: pub}
}

func newCoordWithState(t *testing.T, chain Config, store *roundstate.Counters) *Coordinator {
	t.Helper()
	chain.RoundState = store
	chain.SubmitTimeout = time.Millisecond
	co, err := New(chain)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// TestCoordinatorRoundStateResumesNumbering: after announcing rounds
// and crashing, a coordinator reopened from the same store picks up the
// numbering where the dead process left it, and the chain — which
// consumed those rounds — accepts the continuation.
func TestCoordinatorRoundStateResumesNumbering(t *testing.T) {
	chain := servedChainHead(t)
	path := filepath.Join(t.TempDir(), "entry.rounds")
	store, err := roundstate.OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	co := newCoordWithState(t, chain, store)
	ctx := context.Background()
	for want := uint64(1); want <= 2; want++ {
		round, _, err := co.RunConvoRound(ctx)
		if err != nil || round != want {
			t.Fatalf("convo round = %d, err %v; want %d", round, err, want)
		}
	}
	if round, _, err := co.RunDialRound(ctx); err != nil || round != 1 {
		t.Fatalf("dial round = %d, err %v; want 1", round, err)
	}

	// "Crash": drop the process, release its lock, and start a fresh
	// coordinator from the same file against the same chain.
	co.Close()
	store.Close()
	store2, err := roundstate.OpenCounters(path)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	co2 := newCoordWithState(t, chain, store2)
	defer co2.Close()
	if round, _, err := co2.RunConvoRound(ctx); err != nil || round != 3 {
		t.Fatalf("restarted coordinator ran convo round %d, err %v; want 3", round, err)
	}
	if round, _, err := co2.RunDialRound(ctx); err != nil || round != 2 {
		t.Fatalf("restarted coordinator ran dial round %d, err %v; want 2", round, err)
	}
}

// TestCoordinatorWithoutStateReissuesConsumedRounds is the control: a
// stateless entry restart re-issues round 1, and a chain with durable
// round state rejects it as a replay — the wedge the coordinator's own
// persistence exists to prevent.
func TestCoordinatorWithoutStateReissuesConsumedRounds(t *testing.T) {
	chain := servedChainHead(t)
	co := newCoordWithState(t, chain, nil)
	ctx := context.Background()
	if round, _, err := co.RunConvoRound(ctx); err != nil || round != 1 {
		t.Fatalf("convo round = %d, err %v; want 1", round, err)
	}
	co.Close()

	co2 := newCoordWithState(t, chain, nil)
	defer co2.Close()
	round, _, err := co2.RunConvoRound(ctx)
	if round != 1 {
		t.Fatalf("stateless restart announced round %d, want the re-issued 1", round)
	}
	// The refusal crossed the entry leg, so it is the head's own report
	// quoted in a RemoteError, as chainnet_test.go's replay rows read it.
	var remote *mixnet.RemoteError
	if !errors.As(err, &remote) || remote.Addr != chain.ChainAddr || !strings.Contains(remote.Msg, mixnet.ErrRoundReplay.Error()) {
		t.Fatalf("chain accepted the re-issued round 1: err %v, want a RemoteError from %s carrying ErrRoundReplay", err, chain.ChainAddr)
	}
}

// TestCoordinatorRoundStateCommitFailureFailsRound: a round whose
// number cannot be burned durably must not announce — and the next
// round (with a healed disk it would proceed) skips the wasted number
// rather than reusing it.
func TestCoordinatorRoundStateCommitFailureFailsRound(t *testing.T) {
	chain := servedChainHead(t)
	dir := filepath.Join(t.TempDir(), "state")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	store, err := roundstate.OpenCounters(filepath.Join(dir, "entry.rounds"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	co := newCoordWithState(t, chain, store)
	defer co.Close()
	if _, _, err := co.RunConvoRound(context.Background()); err == nil {
		t.Fatal("round announced without a durable number")
	}
}

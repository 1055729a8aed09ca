package coordinator_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"vuvuzela/internal/coordinator"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/sim"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// TestStartKeepsTickingAfterCommitFailure: a refused round-state write
// fails that round, not the entry. Timer mode must report it and announce
// a fresh round on the next tick — at every ConvoWindow, so the flag
// never decides whether an entry survives one bad commit. Every commit
// fails here (the store's directory is gone), so each tick is one more
// report, with a round number that never repeats.
func TestStartKeepsTickingAfterCommitFailure(t *testing.T) {
	for _, window := range []int{1, 3} {
		t.Run(fmt.Sprintf("window-%d", window), func(t *testing.T) {
			defer sim.LeakCheck(t)()
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

			failures := make(chan roundFailure, 64)
			co, err := coordinator.New(coordinator.Config{
				Net:           transport.NewMem(), // never reached: no round gets past its commit
				ChainAddr:     "unreachable-chain",
				ChainPub:      unreachableChainKey(),
				RoundState:    store,
				SubmitTimeout: time.Millisecond,
				ConvoWindow:   window,
				OnRoundError: func(proto wire.Proto, round uint64, err error) {
					failures <- roundFailure{proto, round, err}
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer co.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			co.Start(ctx, 5*time.Millisecond, 0)

			var last uint64
			deadline := time.After(5 * time.Second)
			for n := 0; n < 3; n++ {
				select {
				case f := <-failures:
					if f.proto != wire.ProtoConvo || f.err == nil || f.round <= last {
						t.Fatalf("report %d: %+v after round %d", n+1, f, last)
					}
					last = f.round
				case <-deadline:
					t.Fatalf("%d commit failure(s) reported, then the entry went silent: it stopped announcing conversation rounds", n)
				}
			}
		})
	}
}

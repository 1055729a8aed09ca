package sim

// The node table through its one lifecycle: every process of a full
// deployment — shards, chain servers, entry, frontends — is restarted and
// killed by its listen address, the way a fault schedule generator would
// pick its victims from Nodes().

import (
	"testing"
	"time"

	"vuvuzela/internal/coordinator"
)

// TestEveryNodeLifecycle drives each node of a full deployment through
// Restart, and through Kill then Restart, with rounds before and after
// each: the deployment must re-form every time, and no round number may
// ever reach the exchange twice.
func TestEveryNodeLifecycle(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{
		Servers: 3, Shards: 2, Frontends: 2, Entry: coordinator.Config{ConvoWindow: 2},
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()

	nodes := cn.Nodes()
	if want := 2 + 3 + 1 + 2; len(nodes) != want {
		t.Fatalf("Nodes() = %v, want %d addresses", nodes, want)
	}
	exchanged := 0
	rounds := func(when string) {
		t.Helper()
		if _, err := cn.RunRounds(4, 2); err != nil {
			t.Fatalf("rounds %s: %v", when, err)
		}
		log := cn.ExchangedRounds()
		assertStrictlyIncreasing(t, log)
		if len(log) != exchanged+2 {
			t.Fatalf("%s: exchange saw %d rounds, want %d more than %d", when, len(log), 2, exchanged)
		}
		exchanged = len(log)
	}
	reform := func(when string) {
		t.Helper()
		// RunRounds' clients are gone; the tier is whole again once none of
		// them is still counted and every frontend pipe is back.
		if err := cn.WaitReady(0, 5*time.Second); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	for _, addr := range nodes {
		rounds("before restarting " + addr)
		if err := cn.Restart(addr); err != nil {
			t.Fatalf("restart %s: %v", addr, err)
		}
		reform("after restarting " + addr)
		rounds("after restarting " + addr)

		cn.Kill(addr)
		cn.Kill(addr) // a node already down: no-op
		if err := cn.Restart(addr); err != nil {
			t.Fatalf("restart of killed %s: %v", addr, err)
		}
		reform("after killing and restarting " + addr)
		rounds("after killing and restarting " + addr)
	}

	cn.Kill("no-such-node")
	if err := cn.Restart("no-such-node"); err == nil {
		t.Fatal("restarting an address nobody listens on succeeded")
	}
	rounds("after the unknown-address calls")
}

// TestRunRoundsEntryDown: with a frontend tier, clients can register
// while the coordinator is dead; RunRounds must report the dead entry,
// not dereference it.
func TestRunRoundsEntryDown(t *testing.T) {
	defer LeakCheck(t)()
	cn, err := NewChainNet(ChainNetConfig{Servers: 2, Frontends: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cn.Close()
	cn.Kill(cn.EntryAddr)
	if _, err := cn.RunRounds(4, 1); err == nil {
		t.Fatal("rounds ran with the entry down")
	}
	if err := cn.Restart(cn.EntryAddr); err != nil {
		t.Fatal(err)
	}
	if _, err := cn.RunRounds(4, 1); err != nil {
		t.Fatalf("rounds after the entry came back: %v", err)
	}
}

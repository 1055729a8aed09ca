//go:build goexperiment.synctest

package sim

// Suites in virtual time: each test runs inside a testing/synctest
// bubble, whose clock jumps ahead whenever every goroutine in it is
// blocked, so a wait costs no wall time and a duration read inside is
// the protocol's own, free of the host's scheduling. `make vtime` runs
// them (GOEXPERIMENT=synctest go test -race -run VTime ./...); tier-1
// never compiles this file.

import (
	"testing"
	"testing/synctest"
	"time"
)

// vtime runs f in a bubble of its own. It is the tree's one synctest
// call: Go 1.25's synctest.Test(t, f) replaces it.
func vtime(t *testing.T, f func(t *testing.T)) {
	synctest.Run(func() { f(t) })
}

// TestVTimeEntryRestart: after an entry restart every frontend's pipe is
// registered again within the redial backoff's 250 ms cap of virtual
// time.
func TestVTimeEntryRestart(t *testing.T) {
	vtime(t, func(t *testing.T) {
		took := frontNetEntryRestart(t)
		t.Logf("entry restart → frontend tier ready: %v of virtual time", took)
		if took > 250*time.Millisecond {
			t.Fatalf("the frontend tier took %v of virtual time to return after an entry restart, want at most 250ms", took)
		}
	})
}

// TestVTimeChainRestartLastServerCDN is TestChainRestartLastServerCDN in
// virtual time.
func TestVTimeChainRestartLastServerCDN(t *testing.T) {
	vtime(t, restartLastServerCDN)
}

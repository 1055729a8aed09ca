//go:build !race

package collector

import (
	"testing"
	"time"

	"vuvuzela/internal/wire"
)

// TestAnnounceAllocs: announcing to a snapshot of clients builds one
// message; the pipe's budget-carrying copy is built only when the
// snapshot holds a pipe.
func TestAnnounceAllocs(t *testing.T) {
	for _, tc := range []struct {
		front bool
		want  float64
	}{{false, 1}, {true, 2}} {
		co := New(0)
		a, b := tap(t, co, false), tap(t, co, tc.front)
		r := co.Open(wire.ProtoConvo, 1, 1)
		got := testing.AllocsPerRun(20, func() {
			r.Announce(1, time.Second)
			<-a.out
			<-b.out
		})
		if got != tc.want {
			t.Fatalf("pipe in snapshot %v: Announce made %v allocations, want %v", tc.front, got, tc.want)
		}
	}
}

//go:build !race

// The race detector instruments allocations, so this runs only in normal
// builds (`make allocs`).
package wire

import (
	"io"
	"testing"
)

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
func (discard) Read([]byte) (int, error)    { return 0, io.EOF }
func (discard) Close() error                { return nil }

// TestSendAllocs: after the first frame has sized the connection's kept
// buffer, sending frames no larger allocates nothing — at the parent each
// Send made a buffer of the whole frame, as much garbage per message as
// receiving it.
func TestSendAllocs(t *testing.T) {
	conn := NewConn(discard{})
	m := &Message{Kind: KindBatch, Proto: ProtoConvo, Round: 1}
	for i := 0; i < 600; i++ {
		m.Body = append(m.Body, make([]byte, 416))
	}
	if err := conn.Send(m); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		m.Round++
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("Send of a steady-size frame allocates %.0f times, want 0", n)
	}
}

package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// writeLog records every Write it is handed, as the transport would see
// them (each Write of a transport.Secure is sealed into records of its
// own, so the call boundaries are observable on the wire).
type writeLog struct{ calls [][]byte }

func (w *writeLog) Write(p []byte) (int, error) {
	w.calls = append(w.calls, bytes.Clone(p))
	return len(p), nil
}
func (w *writeLog) Read([]byte) (int, error) { return 0, io.EOF }
func (w *writeLog) Close() error             { return nil }

// TestSendWritesUnchanged: encoding into the connection's kept buffer
// hands the transport the same bytes in the same Write calls as encoding
// every frame into a buffer of its own did — header and payload written
// separately through the 64 KiB writer — for frames below, at and far
// above the writer's size, growing and shrinking on one connection.
func TestSendWritesUnchanged(t *testing.T) {
	var got, want writeLog
	conn := NewConn(&got)
	ref := bufio.NewWriterSize(&want, 1<<16)
	for round, size := range []int{0, 100, 1<<16 - 30, 1<<16 - 26, 1<<16 - 25, 300000, 7, 1 << 17} {
		m := &Message{Kind: KindBatch, Proto: ProtoConvo, Round: uint64(round), M: 3, Bucket: 9}
		for rest := size; rest > 0; rest -= 400 {
			m.Body = append(m.Body, bytes.Repeat([]byte{byte(round + 1)}, min(rest, 400)))
		}
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
		payload := m.Encode()
		ref.Write(binary.BigEndian.AppendUint32(nil, uint32(len(payload))))
		ref.Write(payload)
		ref.Flush()
		if len(got.calls) != len(want.calls) {
			t.Fatalf("frame of %d body bytes: %d Write calls so far, want %d", size, len(got.calls), len(want.calls))
		}
	}
	for i := range want.calls {
		if !bytes.Equal(got.calls[i], want.calls[i]) {
			t.Fatalf("Write %d: %d bytes, want %d (or different bytes)", i, len(got.calls[i]), len(want.calls[i]))
		}
	}
}

package wire

import (
	"bytes"
	"errors"
	"net"
	"os"
	"regexp"
	"strconv"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Kind: KindAnnounce, Proto: ProtoConvo, Round: 7},
		{Kind: KindAnnounce, Proto: ProtoDial, Round: 3, M: 16},
		{Kind: KindSubmit, Proto: ProtoConvo, Round: 7, Body: [][]byte{{1, 2, 3}}},
		{Kind: KindBatch, Proto: ProtoConvo, Round: 9, Body: [][]byte{{1}, {}, {2, 3}}},
		{Kind: KindBucketReq, Proto: ProtoDial, Round: 1, Bucket: 5},
		{Kind: KindBucketResp, Proto: ProtoDial, Round: 1, Bucket: 5, Body: [][]byte{make([]byte, 800)}},
		{Kind: KindReplies, Proto: ProtoConvo, Round: 9, Body: nil},
		{Kind: KindError, Proto: ProtoConvo, Round: 4, Body: [][]byte{[]byte("round not newer")}},
	}
	for _, m := range msgs {
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got.Kind != m.Kind || got.Proto != m.Proto || got.Round != m.Round ||
			got.M != m.M || got.Bucket != m.Bucket || len(got.Body) != len(m.Body) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", got, m)
		}
		for i := range m.Body {
			if !bytes.Equal(got.Body[i], m.Body[i]) {
				t.Fatalf("body[%d] mismatch", i)
			}
		}
	}
}

func TestDecodeQuick(t *testing.T) {
	f := func(kind, proto byte, round uint64, m, bucket uint32, body [][]byte) bool {
		msg := &Message{
			Kind: Kind(kind), Proto: Proto(proto), Round: round,
			M: m, Bucket: bucket, Body: body,
		}
		got, err := Decode(msg.Encode())
		if err != nil {
			return false
		}
		if got.Kind != msg.Kind || got.Round != round || len(got.Body) != len(body) {
			return false
		}
		for i := range body {
			if !bytes.Equal(got.Body[i], body[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestErrorMessageRoundTrip(t *testing.T) {
	m := ErrorMessage(ProtoDial, 12, errors.New("dead drop table on fire"))
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindError || got.Proto != ProtoDial || got.Round != 12 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.ErrorString() != "dead drop table on fire" {
		t.Fatalf("error string %q", got.ErrorString())
	}
	// Degenerate frames still yield a usable string.
	for _, bad := range []*Message{
		{Kind: KindError},
		{Kind: KindError, Body: [][]byte{{}}},
		{Kind: KindReplies, Body: [][]byte{[]byte("not an error")}},
	} {
		if s := bad.ErrorString(); s != "unknown remote error" {
			t.Fatalf("degenerate ErrorString = %q", s)
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},                  // shorter than header
		make([]byte, headerSize-1), // still short
		func() []byte { // count says 1 but no body
			m := Message{Kind: KindBatch}
			b := m.Encode()
			b[21] = 1 // count field low byte
			return b
		}(),
		func() []byte { // truncated body
			m := Message{Kind: KindBatch, Body: [][]byte{{1, 2, 3, 4}}}
			b := m.Encode()
			return b[:len(b)-2]
		}(),
		func() []byte { // trailing garbage
			m := Message{Kind: KindBatch}
			return append(m.Encode(), 0xff)
		}(),
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Fatalf("case %d: malformed frame accepted", i)
		}
	}
}

// TestConnSendRecv exercises framed I/O over an in-memory pipe, including
// messages interleaved in both directions.
func TestConnSendRecv(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	done := make(chan error, 1)
	go func() {
		m, err := cb.Recv()
		if err != nil {
			done <- err
			return
		}
		m.Kind = KindReplies
		done <- cb.Send(m)
	}()

	onions := [][]byte{make([]byte, 416), make([]byte, 416)}
	onions[0][0] = 0xaa
	if err := ca.Send(&Message{Kind: KindBatch, Proto: ProtoConvo, Round: 5, Body: onions}); err != nil {
		t.Fatal(err)
	}
	got, err := ca.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindReplies || got.Round != 5 || len(got.Body) != 2 || got.Body[0][0] != 0xaa {
		t.Fatalf("echo mismatch: %+v", got)
	}
}

// TestConnLargeBatch pushes a batch of many onions through a pipe to check
// framing at volume.
func TestConnLargeBatch(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()

	const n = 2000
	onions := make([][]byte, n)
	for i := range onions {
		onions[i] = bytes.Repeat([]byte{byte(i)}, 416)
	}
	errc := make(chan error, 1)
	go func() {
		errc <- ca.Send(&Message{Kind: KindBatch, Round: 1, Body: onions})
	}()
	got, err := cb.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(got.Body) != n {
		t.Fatalf("got %d onions", len(got.Body))
	}
	for i := 0; i < n; i += 97 {
		if !bytes.Equal(got.Body[i], onions[i]) {
			t.Fatalf("onion %d corrupted", i)
		}
	}
}

func BenchmarkEncodeBatch1k(b *testing.B) {
	onions := make([][]byte, 1000)
	for i := range onions {
		onions[i] = make([]byte, 416)
	}
	m := &Message{Kind: KindBatch, Round: 1, Body: onions}
	b.SetBytes(int64(m.size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Encode()
	}
}

// TestConnRecvLimit: a connection's own receive limit decides from the
// length prefix alone — a frame at the limit is read, one byte over is
// ErrFrameTooLarge before any payload arrives, and the global cap still
// applies to a connection that set none.
func TestConnRecvLimit(t *testing.T) {
	msg := &Message{Kind: KindSubmit, Proto: ProtoConvo, Round: 1, Body: [][]byte{make([]byte, 416)}}
	size := uint32(len(msg.Encode()))
	for _, tc := range []struct {
		name  string
		limit int // the part length of a one-part limit; 0: leave the default
		hdr   uint32
		want  error
	}{
		{"at the limit", 416, size, nil},
		{"one over the limit", 415, size, ErrFrameTooLarge},
		{"default admits the global cap", 0, size, nil},
		{"default refuses past the global cap", 0, MaxFrameSize + 1, ErrFrameTooLarge},
		{"a limit never exceeds the global cap", MaxFrameSize, MaxFrameSize + 1, ErrFrameTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			ca := NewConn(a)
			defer ca.Close()
			defer b.Close()
			if tc.limit != 0 {
				ca.SetRecvLimit(1, tc.limit)
			}
			go func() {
				// The header first, on its own: a refusal must not wait
				// for (or read) a single payload byte.
				b.Write([]byte{byte(tc.hdr >> 24), byte(tc.hdr >> 16), byte(tc.hdr >> 8), byte(tc.hdr)})
				if tc.want == nil {
					b.Write(msg.Encode())
				}
			}()
			got, err := ca.Recv()
			if !errors.Is(err, tc.want) || (err == nil && len(got.Body) != 1) {
				t.Fatalf("Recv = %+v, %v; want %v", got, err, tc.want)
			}
		})
	}
}

// TestKindValues pins every live Kind to its row of docs/WIRE.md §2.1,
// so that retiring a kind leaves a blank in the iota list instead of
// renumbering the kinds after it.
func TestKindValues(t *testing.T) {
	live := map[string]Kind{
		"KindAnnounce":     KindAnnounce,
		"KindSubmit":       KindSubmit,
		"KindReply":        KindReply,
		"KindBatch":        KindBatch,
		"KindReplies":      KindReplies,
		"KindBucketReq":    KindBucketReq,
		"KindBucketResp":   KindBucketResp,
		"KindError":        KindError,
		"KindShardRound":   KindShardRound,
		"KindShardReply":   KindShardReply,
		"KindFrontBatch":   KindFrontBatch,
		"KindFrontReplies": KindFrontReplies,
	}
	doc, err := os.ReadFile("../../docs/WIRE.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := regexp.MustCompile(`(?m)^\| (\d+) +\| (Kind\w+) +\|`).FindAllStringSubmatch(string(doc), -1)
	if len(rows) != len(live) {
		t.Fatalf("WIRE.md §2.1 lists %d kinds, the code %d", len(rows), len(live))
	}
	for _, row := range rows {
		k, ok := live[row[2]]
		if !ok {
			t.Errorf("WIRE.md lists %s, which the code does not define", row[2])
		} else if v, _ := strconv.Atoi(row[1]); int(k) != v {
			t.Errorf("%s = %d, WIRE.md says %d", row[2], k, v)
		}
	}
}

package wire

import (
	"errors"
	"testing"
)

// TestCheckFrontBatch walks the validator through the frontend-batch
// rejection table: every structural mismatch is an ErrFrontFrame, never
// a panic, and the happy paths (including the empty M=0 batch) pass.
func TestCheckFrontBatch(t *testing.T) {
	onions := func(n int) [][]byte {
		out := make([][]byte, n)
		for i := range out {
			out[i] = []byte{byte(i)}
		}
		return out
	}
	cases := []struct {
		name      string
		m         *Message
		perClient int
		ok        bool
	}{
		{"nil", nil, 1, false},
		{"wrong kind", &Message{Kind: KindSubmit, Proto: ProtoConvo, M: 1, Body: onions(1)}, 1, false},
		{"unknown proto", &Message{Kind: KindFrontBatch, Proto: 9, M: 1, Body: onions(1)}, 1, false},
		{"zero perClient", FrontBatchMessage(ProtoConvo, 1, 1, onions(1)), 0, false},
		{"count mismatch", FrontBatchMessage(ProtoConvo, 1, 2, onions(3)), 2, false},
		{"undercount", FrontBatchMessage(ProtoConvo, 1, 3, onions(2)), 1, false},
		{"huge M overflow", &Message{Kind: KindFrontBatch, Proto: ProtoConvo, M: 1 << 23, Body: onions(4)}, 1 << 10, false},
		{"M beyond frame bound", &Message{Kind: KindFrontBatch, Proto: ProtoConvo, M: MaxBodyParts + 1, Body: nil}, 1, false},
		{"ok single", FrontBatchMessage(ProtoConvo, 1, 2, onions(2)), 1, true},
		{"ok multi-exchange", FrontBatchMessage(ProtoConvo, 1, 2, onions(6)), 3, true},
		{"ok empty", FrontBatchMessage(ProtoDial, 1, 0, nil), 1, true},
	}
	for _, tc := range cases {
		err := CheckFrontBatch(tc.m, tc.perClient)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			} else if !errors.Is(err, ErrFrontFrame) {
				t.Errorf("%s: error not ErrFrontFrame-classed: %v", tc.name, err)
			}
		}
	}
}

// frontReplies builds the coordinator→frontend reply-slice frame the way
// the entry tier sends it (collector.Reply).
func frontReplies(proto Proto, round uint64, m uint32, replies [][]byte) *Message {
	return &Message{Kind: KindFrontReplies, Proto: proto, Round: round, M: m, Body: replies}
}

// TestCheckFrontReplies pins the reply-slice validator: round, proto,
// and length must all echo the forwarded batch, so a stale or misrouted
// slice drops the pipe instead of shifting replies between rounds.
func TestCheckFrontReplies(t *testing.T) {
	replies := [][]byte{{1}, {2}}
	good := frontReplies(ProtoConvo, 7, 0, replies)
	if err := CheckFrontReplies(good, ProtoConvo, 7, 2); err != nil {
		t.Fatalf("valid replies rejected: %v", err)
	}
	ack := frontReplies(ProtoDial, 3, 16, nil)
	if err := CheckFrontReplies(ack, ProtoDial, 3, 0); err != nil {
		t.Fatalf("valid dial ack rejected: %v", err)
	}
	bad := []struct {
		name string
		m    *Message
	}{
		{"nil", nil},
		{"wrong kind", &Message{Kind: KindReplies, Proto: ProtoConvo, Round: 7, Body: replies}},
		{"wrong proto", frontReplies(ProtoDial, 7, 0, replies)},
		{"stale round", frontReplies(ProtoConvo, 6, 0, replies)},
		{"short body", frontReplies(ProtoConvo, 7, 0, replies[:1])},
	}
	for _, tc := range bad {
		if err := CheckFrontReplies(tc.m, ProtoConvo, 7, 2); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !errors.Is(err, ErrFrontFrame) {
			t.Errorf("%s: error not ErrFrontFrame-classed: %v", tc.name, err)
		}
	}
}

// TestFrontFramesRoundTrip: the new kinds survive Encode/Decode with
// header fields intact.
func TestFrontFramesRoundTrip(t *testing.T) {
	msgs := []*Message{
		FrontBatchMessage(ProtoConvo, 12, 2, [][]byte{{1}, {2}}),
		frontReplies(ProtoConvo, 12, 0, [][]byte{{3}, {4}}),
		frontReplies(ProtoDial, 5, 8, nil),
	}
	for _, m := range msgs {
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if got.Kind != m.Kind || got.Proto != m.Proto || got.Round != m.Round || got.M != m.M || len(got.Body) != len(m.Body) {
			t.Fatalf("roundtrip mismatch: %+v vs %+v", got, m)
		}
	}
}

package client

import (
	"encoding/binary"
	"errors"

	"vuvuzela/internal/convo"
)

// The client embeds a small reliability header inside each 240-byte
// conversation payload, implementing the retransmission layer the paper
// assigns to the client (§3.1). Retransmission is go-back-N: each
// conversation sends one frame per round, with up to sendWindow data
// messages in flight unacknowledged per direction; a receiver delivers
// only the next sequence in order, and once a sender's window is sent
// without ack progress it resends from the oldest unacknowledged message.
//
// Frame layout (inside the convo payload):
//
//	type(1) | seq(4) | ack(4) | text...
//
// type frameData carries text with sequence seq; frameAck carries only the
// cumulative ack. ack always holds the highest in-order sequence received,
// so acks piggyback on data frames.

const (
	frameAck  = 0x00
	frameData = 0x01

	frameHeaderLen = 1 + 4 + 4

	// MaxTextLen is the largest text one round can carry after the
	// reliability header: 240 − 2 (convo length prefix) − 9 = 229 bytes.
	MaxTextLen = convo.MaxMessageLen - frameHeaderLen
)

// frameHeader is a parsed reliability header.
type frameHeader struct {
	Type byte
	Seq  uint32
	Ack  uint32
}

var errBadFrame = errors.New("client: malformed conversation frame")

// buildFrame assembles a frame for transmission.
func buildFrame(typ byte, seq, ack uint32, text []byte) []byte {
	out := make([]byte, frameHeaderLen+len(text))
	out[0] = typ
	binary.BigEndian.PutUint32(out[1:5], seq)
	binary.BigEndian.PutUint32(out[5:9], ack)
	copy(out[frameHeaderLen:], text)
	return out
}

// parseFrame splits a peer payload into header and text.
func parseFrame(b []byte) (frameHeader, []byte, error) {
	if len(b) < frameHeaderLen {
		return frameHeader{}, nil, errBadFrame
	}
	h := frameHeader{
		Type: b[0],
		Seq:  binary.BigEndian.Uint32(b[1:5]),
		Ack:  binary.BigEndian.Uint32(b[5:9]),
	}
	if h.Type != frameAck && h.Type != frameData {
		return frameHeader{}, nil, errBadFrame
	}
	return h, b[frameHeaderLen:], nil
}

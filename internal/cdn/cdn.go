// Package cdn implements the untrusted distribution substrate for dialing
// invitation dead drops (paper §5.5: "we envision that Vuvuzela could use
// a CDN or BitTorrent-like design to distribute the contents of invitation
// dead drops to clients"; the paper leaves this unimplemented — we build
// it as an in-process/TCP blob store).
//
// The last chain server publishes each dialing round's buckets into the
// store; clients fetch exactly the one bucket their public key maps to.
// Downloads bypass the mixnet because bucket contents are already mixed
// and noised (§5.5).
package cdn

import (
	"net"
	"sync"

	"vuvuzela/internal/dial"
	"vuvuzela/internal/wire"
)

// DefaultRetain is how many past dialing rounds the store keeps.
const DefaultRetain = 4

// Store holds published dialing buckets for recent rounds. It implements
// mixnet.BucketSink.
type Store struct {
	mu     sync.Mutex
	rounds map[uint64]*dial.Buckets
	order  []uint64
	retain int
}

// NewStore returns a store retaining the given number of rounds
// (DefaultRetain if retain <= 0).
func NewStore(retain int) *Store {
	if retain <= 0 {
		retain = DefaultRetain
	}
	return &Store{
		rounds: make(map[uint64]*dial.Buckets),
		retain: retain,
	}
}

// Publish stores a round's buckets, evicting the oldest beyond the
// retention window.
func (s *Store) Publish(b *dial.Buckets) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.rounds[b.Round]; !ok {
		s.order = append(s.order, b.Round)
	}
	s.rounds[b.Round] = b
	for len(s.order) > s.retain {
		old := s.order[0]
		s.order = s.order[1:]
		delete(s.rounds, old)
	}
}

// Buckets returns a round's full bucket set, if retained.
func (s *Store) Buckets(round uint64) (*dial.Buckets, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.rounds[round]
	return b, ok
}

// Bucket returns one bucket blob of a round.
func (s *Store) Bucket(round uint64, idx uint32) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.rounds[round]
	if !ok || idx >= uint32(len(b.Data)) {
		return nil, false
	}
	return b.Data[idx], true
}

// Handle answers one connection's bucket fetches (wire.KindBucketReq),
// as the last server's mixnet.Server.ServeBuckets handler. A missing
// bucket yields an empty blob, which clients treat as "no invitations".
func (s *Store) Handle(raw net.Conn) {
	c := wire.NewConn(raw)
	defer c.Close()
	// Anyone can dial this listener and a KindBucketReq has no body: a
	// longer frame is refused before anything is allocated for it.
	c.SetRecvLimit(0, 0)
	for {
		msg, err := c.Recv()
		if err != nil {
			return
		}
		if msg.Kind != wire.KindBucketReq {
			return
		}
		blob, _ := s.Bucket(msg.Round, msg.Bucket)
		resp := &wire.Message{
			Kind:   wire.KindBucketResp,
			Proto:  wire.ProtoDial,
			Round:  msg.Round,
			Bucket: msg.Bucket,
			Body:   [][]byte{blob},
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// Fetch retrieves one bucket over an established wire connection — the
// client side of Serve.
func Fetch(c *wire.Conn, round uint64, bucket uint32) ([]byte, error) {
	if err := c.Send(&wire.Message{Kind: wire.KindBucketReq, Proto: wire.ProtoDial, Round: round, Bucket: bucket}); err != nil {
		return nil, err
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindBucketResp || len(resp.Body) == 0 {
		return nil, wire.ErrMalformed
	}
	return resp.Body[0], nil
}

// Package deaddrop implements the ephemeral dead-drop table held by the
// last server in the chain for one conversation round (paper §3.1 and
// Algorithm 2 step 3b).
//
// A dead drop is a virtual location named by a 128-bit ID. Each exchange
// request deposits a fixed-size payload into a drop and receives back the
// payload deposited by the other request on the same drop in the same
// round, or a zero payload if there is none ("the last Vuvuzela server
// returns an empty message when it receives only one exchange for a dead
// drop", §4.1). Drops do not persist across rounds.
package deaddrop

import "encoding/binary"

// IDSize is the dead-drop identifier size: 128 bits (§3.1).
const IDSize = 16

// ID names a dead drop within a single round.
type ID [IDSize]byte

// ShardOf maps a drop ID to its shard among `shards` partitions: the
// leading 64 bits of the ID reduced mod the shard count. IDs are uniform
// (they are hash outputs, convo.DeadDropID), so shards balance for any
// shard count, including non-powers of two. A drop's ID fully determines
// its shard, so both requests of a conversation land on the same shard:
// this is the routing rule of the networked shard fan-out
// (mixnet.ShardRouter).
func ShardOf(id ID, shards int) int {
	if shards <= 1 {
		return 0
	}
	return int(binary.BigEndian.Uint64(id[:8]) % uint64(shards))
}

// Table accumulates the exchange requests of one round. The zero value is
// not usable; call NewTable.
type Table struct {
	// drops holds the state of every drop accessed so far.
	drops map[ID]drop
	// payloads holds each request's deposited payload, indexed by arrival.
	payloads [][]byte
	// partner holds, per request, the request it is paired with, or -1.
	partner []int
}

// drop is one dead drop's state: how many requests accessed it, and which
// of them still waits for a partner (its index plus one; 0 for none).
// Pairing as requests arrive, instead of listing them per drop, keeps a
// round's table to a handful of allocations.
type drop struct{ accesses, waiting int }

// NewTable returns an empty table with capacity hints for n requests.
func NewTable(n int) *Table {
	return &Table{
		drops:    make(map[ID]drop, n),
		payloads: make([][]byte, 0, n),
		partner:  make([]int, 0, n),
	}
}

// Add deposits a payload into the given drop and returns the request's
// index. Payloads are not copied; callers must not mutate them until after
// Exchange.
func (t *Table) Add(id ID, payload []byte) int {
	idx := len(t.payloads)
	t.payloads = append(t.payloads, payload)
	d := t.drops[id]
	d.accesses++
	if d.waiting > 0 {
		t.partner[d.waiting-1] = idx
		t.partner = append(t.partner, d.waiting-1)
		d.waiting = 0
	} else {
		t.partner = append(t.partner, -1)
		d.waiting = idx + 1
	}
	t.drops[id] = d
	return idx
}

// Exchange performs the round's dead-drop matching and returns one reply
// per request, aligned with Add order. Requests on a drop are paired in
// arrival order (1st with 2nd, 3rd with 4th, ...); a paired request
// receives its partner's payload, and an unpaired request receives a zero
// payload of equal length. Honest clients never collide (IDs are drawn
// from a 2^128 space, §4.1 and footnote 6), so >2 accesses only arise from
// adversarial traffic; pairing in arrival order keeps the reply size
// invariant without revealing anything new.
func (t *Table) Exchange() [][]byte {
	// The zero payloads are cut from one buffer.
	unpaired := 0
	for i, p := range t.partner {
		if p < 0 {
			unpaired += len(t.payloads[i])
		}
	}
	zeros := make([]byte, unpaired)
	replies := make([][]byte, len(t.payloads))
	for i, p := range t.partner {
		if p >= 0 {
			replies[i] = t.payloads[p]
			continue
		}
		n := len(t.payloads[i])
		replies[i], zeros = zeros[:n:n], zeros[n:]
	}
	return replies
}

// Histogram returns the observable variables of the round (§4.2): the
// number of drops accessed once (m1), twice (m2), and more than twice
// (more; only adversarial traffic produces these).
func (t *Table) Histogram() (m1, m2, more int) {
	for _, d := range t.drops {
		switch d.accesses {
		case 1:
			m1++
		case 2:
			m2++
		default:
			more++
		}
	}
	return m1, m2, more
}

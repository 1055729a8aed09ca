// Package shuffle implements the cryptographically random permutations
// each mixing server applies to a round's requests (paper §4.1, Algorithm
// 2 step 3a) and their inverses for the reply path.
package shuffle

import (
	"crypto/rand"
	"encoding/binary"
	"io"
)

// Permutation maps source index → destination index: applying p moves
// element i to position p[i].
type Permutation []int

// New draws a uniformly random permutation of n elements via Fisher-Yates,
// reading randomness from rng (crypto/rand.Reader if nil). Modulo bias is
// eliminated by rejection sampling. The 8-byte draws are read in bulk —
// one read for a batch of a few thousand, topped up only by as many draws
// as were rejected — and consumed in stream order, so a given stream
// yields the permutation it would if each draw were read on its own.
func New(n int, rng io.Reader) Permutation {
	if rng == nil {
		rng = rand.Reader
	}
	p := make(Permutation, n)
	for i := range p {
		p[i] = i
	}
	if n < 2 {
		return p
	}
	// pending holds the draws read and not yet consumed; a read fetches
	// one for each element still to place, at most a buffer of them.
	buf := make([]byte, 8*min(n-1, maxBulkDraws))
	var pending []byte
	for i := n - 1; i > 0; {
		if len(pending) == 0 {
			pending = buf[:min(8*i, len(buf))]
			if _, err := io.ReadFull(rng, pending); err != nil {
				// A server that cannot shuffle randomly must not proceed:
				// a predictable permutation voids the mixnet property.
				panic("shuffle: randomness source failed: " + err.Error())
			}
		}
		v := binary.BigEndian.Uint64(pending)
		pending = pending[8:]
		// Accept v below the largest multiple of i+1 that fits a uint64.
		m := uint64(i + 1)
		if v < (^uint64(0)/m)*m {
			j := int(v % m)
			p[i], p[j] = p[j], p[i]
			i--
		}
	}
	return p
}

// maxBulkDraws bounds New's read buffer (32 KiB).
const maxBulkDraws = 4096

// Apply permutes src into a new slice: out[p[i]] = src[i].
func (p Permutation) Apply(src [][]byte) [][]byte {
	out := make([][]byte, len(src))
	for i, v := range src {
		out[p[i]] = v
	}
	return out
}

// Invert undoes Apply: given out with out[p[i]] = src[i], it recovers src.
// Servers use this to restore reply order before stripping their noise
// (Algorithm 2 step 3a: "unshuffles them by applying the inverse
// permutation").
func (p Permutation) Invert(shuffled [][]byte) [][]byte {
	out := make([][]byte, len(shuffled))
	for i := range out {
		out[i] = shuffled[p[i]]
	}
	return out
}

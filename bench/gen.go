package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/parallel"
	"vuvuzela/internal/wire"
)

// seedReader is the deterministic byte stream handed to onion.Wrap and
// dial.BuildRequest for their ephemeral keys. crypto/ecdh's GenerateKey
// reads a single byte from its source on a coin flip precisely so that
// callers cannot depend on the stream position; answering one-byte reads
// without advancing keeps the stream — and so every pre-built onion — a
// function of the seed alone.
type seedReader struct{ src *rand.ChaCha8 }

func newSeedReader(seed int64, label string, i int) *seedReader {
	return &seedReader{src: rand.NewChaCha8([32]byte(seedBytes(seed, label, i)))}
}

func (r *seedReader) Read(p []byte) (int, error) {
	if len(p) == 1 {
		p[0] = 0
		return 1, nil
	}
	return r.src.Read(p)
}

// user is one simulated user: a long-term key pair and the conversation
// secret shared with its peer. Users 2k and 2k+1 converse.
type user struct {
	pub    box.PublicKey
	priv   box.PrivateKey
	secret *[32]byte
}

// submission is what one generator connection sends in one conversation
// round and what it needs to check the answer: connection g carries the
// users g, g+G, g+2G, …, one onion each.
type submission struct {
	// msg is the KindSubmit frame: Body[i] is user users[i]'s onion.
	msg *wire.Message
	// keys[i] are onion i's per-layer reply keys, as onion.Wrap returned
	// them.
	keys [][]*[box.KeySize]byte
}

// inputs is everything generated from a seed before anything is timed:
// the users, and for every round of a cycle each generator connection's
// submission. A fresh deployment numbers its rounds from 1, so one set
// serves every cycle of a run, and the timed rounds contain no client
// crypto beyond opening the replies.
type inputs struct {
	w    workload
	seed int64
	keys *keys
	// gens is the number of generator connections G.
	gens  int
	users []user
	// rounds is warmupRounds plus the workload's measured rounds.
	rounds int
	// subs[g][r-1] is connection g's submission for conversation round r.
	subs [][]submission
	// dialSubs[g][d-1] is connection g's KindSubmit for dialing round d;
	// genPubs/genPrivs are the connections' dialing identities.
	// Connection 0 invites connection 1 (itself when G is 1); the others
	// send the idle request.
	dialSubs [][]*wire.Message
	genPubs  []box.PublicKey
	genPrivs []box.PrivateKey

	// buildWall and buildCPU are what pre-building the conversation
	// onions cost; onions is how many were built.
	buildWall, buildCPU time.Duration
	onions              int
}

// numGenerators is G: one generator goroutine and connection per core, at
// most two — a fat client per core instead of a connection and goroutine
// per user, which on a two-core box would measure the scheduler.
func numGenerators() int {
	return min(2, runtime.NumCPU())
}

// text is the message user u sends in round r.
func text(seed int64, u int, r uint64) []byte {
	return fmt.Appendf(nil, "seed %d: user %d, round %d", seed, u, r)
}

// dialRounds is how many dialing rounds a cycle of w starts.
func dialRounds(w workload) int {
	if !w.dial {
		return 0
	}
	return (w.rounds + dialEvery - 1) / dialEvery
}

// buildInputs derives the users from the seed and pre-builds every onion
// of a cycle on all cores.
func buildInputs(w workload, seed int64, gens int) (*inputs, error) {
	if w.users%2 != 0 || w.users%gens != 0 {
		return nil, fmt.Errorf("bench: %d users do not split into pairs over %d connections", w.users, gens)
	}
	in := &inputs{
		w: w, seed: seed, gens: gens,
		keys:   newKeys(seed, w.shards),
		users:  make([]user, w.users),
		rounds: warmupRounds + w.rounds,
		subs:   make([][]submission, gens),
	}
	for u := range in.users {
		in.users[u].pub, in.users[u].priv = seededKey(seed, "user", u)
	}
	for u := range in.users {
		secret, err := convo.DeriveSecret(&in.users[u].priv, &in.users[u^1].pub)
		if err != nil {
			return nil, fmt.Errorf("bench: deriving conversation secret: %w", err)
		}
		in.users[u].secret = secret
	}
	per := w.users / gens
	for g := range in.subs {
		in.subs[g] = make([]submission, in.rounds)
		for r := range in.subs[g] {
			in.subs[g][r] = submission{
				msg: &wire.Message{
					Kind: wire.KindSubmit, Proto: wire.ProtoConvo, Round: uint64(r + 1),
					Body: make([][]byte, per),
				},
				keys: make([][]*[box.KeySize]byte, per),
			}
		}
	}

	start, cpu0 := time.Now(), cpuTime()
	err := parallel.ForErr(w.users, 0, func(u int) error {
		rng := newSeedReader(seed, "wrap", u)
		usr := &in.users[u]
		for r := 1; r <= in.rounds; r++ {
			round := uint64(r)
			req, err := convo.BuildRequest(usr.secret, round, &usr.pub, text(seed, u, round))
			if err != nil {
				return err
			}
			o, keys, err := onion.Wrap(req.Marshal(), round, 0, in.keys.pubs, rng)
			if err != nil {
				return err
			}
			sub := &in.subs[u%gens][r-1]
			sub.msg.Body[u/gens], sub.keys[u/gens] = o, keys
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: pre-building onions: %w", err)
	}
	in.buildWall, in.buildCPU = time.Since(start), cpuTime()-cpu0
	in.onions = w.users * in.rounds

	if err := in.buildDial(); err != nil {
		return nil, fmt.Errorf("bench: pre-building dialing onions: %w", err)
	}
	return in, nil
}

// buildDial pre-builds the generator connections' dialing submissions.
func (in *inputs) buildDial() error {
	n := dialRounds(in.w)
	if n == 0 {
		return nil
	}
	in.dialSubs = make([][]*wire.Message, in.gens)
	for g := 0; g < in.gens; g++ {
		pub, priv := seededKey(in.seed, "generator", g)
		in.genPubs, in.genPrivs = append(in.genPubs, pub), append(in.genPrivs, priv)
	}
	for g := 0; g < in.gens; g++ {
		rng := newSeedReader(in.seed, "dial", g)
		var callee *box.PublicKey
		if g == 0 {
			callee = &in.genPubs[in.invitee()]
		}
		for d := 1; d <= n; d++ {
			req, err := dial.BuildRequest(&in.genPubs[g], callee, 1, rng)
			if err != nil {
				return err
			}
			o, _, err := onion.Wrap(req.Marshal(), uint64(d), 0, in.keys.pubs, rng)
			if err != nil {
				return err
			}
			in.dialSubs[g] = append(in.dialSubs[g], &wire.Message{
				Kind: wire.KindSubmit, Proto: wire.ProtoDial, Round: uint64(d), Body: [][]byte{o},
			})
		}
	}
	return nil
}

// invitee is the generator connection that connection 0 dials.
func (in *inputs) invitee() int { return 1 % in.gens }

// verify opens connection g's replies to round r and counts how many
// carry exactly the text the user's peer sent in that round.
func (in *inputs) verify(g int, round uint64, replies [][]byte) (ok, bad int) {
	sub := &in.subs[g][round-1]
	if len(replies) != len(sub.keys) {
		return 0, len(sub.keys)
	}
	for i, reply := range replies {
		u := g + i*in.gens
		peer := u ^ 1
		inner, err := onion.UnwrapReply(reply, round, 0, sub.keys[i])
		if err == nil {
			got, present := convo.OpenReply(in.users[u].secret, round, &in.users[peer].pub, inner)
			if present && bytes.Equal(got, text(in.seed, peer, round)) {
				ok++
				continue
			}
		}
		bad++
	}
	return ok, bad
}

// genResult is one generator connection's verdict on one round's replies.
type genResult struct {
	round   uint64
	ok, bad int
}

// generator is one fat client: it answers every announcement on its
// connection with the pre-built submission for that round and verifies
// every reply frame.
type generator struct {
	idx  int
	in   *inputs
	conn *wire.Conn
	// results receives one genResult per conversation reply frame; it is
	// buffered for a whole cycle so the generator never blocks on the
	// driver.
	results chan genResult
	// corrupt, if set, is applied to a reply frame's body before it is
	// verified (the smoke test's deliberately corrupted reply).
	corrupt func(round uint64, replies [][]byte)
}

// run serves the connection until it closes.
func (g *generator) run() {
	for {
		msg, err := g.conn.Recv()
		if err != nil {
			return
		}
		var out *wire.Message
		switch {
		case msg.Kind == wire.KindAnnounce && msg.Proto == wire.ProtoConvo:
			if msg.Round == 0 || msg.Round > uint64(g.in.rounds) {
				continue
			}
			out = g.in.subs[g.idx][msg.Round-1].msg
		case msg.Kind == wire.KindAnnounce && msg.Proto == wire.ProtoDial:
			if msg.Round == 0 || msg.Round > uint64(len(g.in.dialSubs[g.idx])) {
				continue
			}
			out = g.in.dialSubs[g.idx][msg.Round-1]
		case msg.Kind == wire.KindReply && msg.Proto == wire.ProtoConvo:
			if msg.Round == 0 || msg.Round > uint64(g.in.rounds) {
				continue
			}
			if g.corrupt != nil {
				g.corrupt(msg.Round, msg.Body)
			}
			ok, bad := g.in.verify(g.idx, msg.Round, msg.Body)
			g.results <- genResult{round: msg.Round, ok: ok, bad: bad}
			continue
		default:
			continue
		}
		if err := g.conn.Send(out); err != nil {
			return
		}
	}
}

// checkInvitation reports whether dialing round d's published bucket
// holds exactly the invitation connection 0 sent to its invitee.
func (in *inputs) checkInvitation(b *dial.Buckets) bool {
	to := in.invitee()
	bucket := b.Invitations(dial.BucketOf(&in.genPubs[to], b.M))
	found := dial.ScanBucket(bucket, &in.genPubs[to], &in.genPrivs[to])
	return len(found) == 1 && found[0].Sender == in.genPubs[0]
}

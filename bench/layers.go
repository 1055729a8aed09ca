package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/roundstate"
	"vuvuzela/internal/shuffle"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// layerBatch is the size of the seeded batch the layer pass works on.
const layerBatch = 512

// layerBench times one layer's public function directly, outside any
// deployment: the per-layer figure a round-level change is expected to
// move (README, "How the metrics interact").
type layerBench struct {
	// name is the metric receiving the median time per operation.
	name string
	// unit scales seconds per operation into the metric's unit (1e6 for
	// us, 1e3 for ms); rate instead reports operations per second, for
	// throughput metrics whose operation is a megabyte.
	unit float64
	rate bool
	// ops is how many operations one call of fn performs.
	ops int
	fn  func()
	// allocs, if set, is the metric receiving fn's exact heap
	// allocations per operation.
	allocs string
}

// layerMetrics runs the layer pass within about budget and fills in its
// metrics.
func layerMetrics(res *result, seed int64, scratch string, batch int, budget time.Duration) error {
	benches, cleanup, err := layerBenches(seed, scratch, batch)
	if err != nil {
		return err
	}
	defer cleanup()
	each := budget / time.Duration(len(benches))
	for _, b := range benches {
		var samples []float64
		for start := time.Now(); len(samples) < 3 || time.Since(start) < each; {
			t0 := time.Now()
			b.fn()
			samples = append(samples, time.Since(t0).Seconds()/float64(b.ops))
		}
		per := median(samples)
		if b.rate {
			res.set(b.name, 1/per)
		} else {
			res.set(b.name, per*b.unit)
		}
		if b.allocs != "" {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.fn()
			runtime.ReadMemStats(&m1)
			res.set(b.allocs, float64(m1.Mallocs-m0.Mallocs)/float64(b.ops))
		}
	}
	return nil
}

// layerBenches builds the seeded fixtures — a batch of the given size —
// and the table of benchmarks over them; cleanup releases the ones that
// hold resources.
func layerBenches(seed int64, scratch string, batch int) ([]layerBench, func(), error) {
	const round, us, ms = uint64(1), 1e6, 1e3
	k := newKeys(seed, 0)
	rng := newSeedReader(seed, "layers", 0)
	pub, priv := seededKey(seed, "layer-user", 0)
	peerPub, peerPriv := seededKey(seed, "layer-user", 1)
	secret, err := convo.DeriveSecret(&priv, &peerPub)
	if err != nil {
		return nil, nil, err
	}
	msg := text(seed, 0, round)

	// The batch: innermost requests, and the same wrapped for the whole
	// chain, for the last two servers, and for the last server only.
	var requests, wrap3, wrap1, sealed3 [][]byte
	var keys3 [][]*[box.KeySize]byte
	for i := 0; i < batch; i++ {
		req, err := convo.BuildRequest(secret, round, &pub, msg)
		if err != nil {
			return nil, nil, err
		}
		// Distinct drops, so the exchange sees a realistic table.
		if _, err := io.ReadFull(rng, req.DeadDrop[:]); err != nil {
			return nil, nil, err
		}
		requests = append(requests, req.Marshal())
		o3, keys, err := onion.Wrap(requests[i], round, 0, k.pubs, rng)
		if err != nil {
			return nil, nil, err
		}
		o1, _, err := onion.Wrap(requests[i], round, chainServers-1, k.pubs[chainServers-1:], rng)
		if err != nil {
			return nil, nil, err
		}
		reply := req.Sealed[:]
		for l := chainServers - 1; l >= 0; l-- {
			reply = onion.SealReply(reply, keys[l], round, l)
		}
		wrap3, wrap1, keys3, sealed3 = append(wrap3, o3), append(wrap1, o1), append(keys3, keys), append(sealed3, reply)
	}
	each := func(f func(i int)) func() {
		return func() {
			for i := 0; i < batch; i++ {
				f(i)
			}
		}
	}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("bench: layer pass: %v", err))
		}
	}
	wrapFrom := func(layer int) func(i int) {
		return func(i int) {
			_, _, err := onion.Wrap(requests[i], round, layer, k.pubs[layer:], rng)
			must(err)
		}
	}

	var nonce [box.NonceSize]byte
	boxKey := keys3[0][0]
	boxed := box.Seal(requests[0], &nonce, boxKey)
	peerSealed, err := convo.BuildRequest(secret, round, &peerPub, msg)
	if err != nil {
		return nil, nil, err
	}
	frame := &wire.Message{Kind: wire.KindBatch, Proto: wire.ProtoConvo, Round: round, Body: wrap3}
	encoded := frame.Encode()
	perm := shuffle.New(batch, nil)

	dialReqs := dial.NoiseGen{Dist: noise.Fixed{N: batch}, Rand: rng}.Generate(1)
	bucket := dial.Service{}.Process(round, 1, dialReqs).Invitations(0)

	last, err := mixnet.NewServer(mixnet.Config{
		Position: chainServers - 1, ChainPubs: k.pubs, Priv: k.privs[chainServers-1],
		// The same round is processed again on every call.
		AllowRoundReuse: true,
	})
	if err != nil {
		return nil, nil, err
	}

	// Fixtures that hold resources register their release as they are
	// made, so a later failure undoes the earlier ones.
	var release []func()
	cleanup := func() {
		for i := len(release) - 1; i >= 0; i-- {
			release[i]()
		}
	}
	release = append(release, func() { last.Close() })
	stateDir, err := os.MkdirTemp(scratch, "layers-")
	if err != nil {
		cleanup()
		return nil, nil, fmt.Errorf("bench: %w", err)
	}
	release = append(release, func() { os.RemoveAll(stateDir) })
	counters, err := roundstate.OpenCounters(filepath.Join(stateDir, "layer.rounds"))
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	release = append(release, func() { counters.Close() })
	committed := uint64(0)
	link, err := newSecureLink(k)
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	release = append(release, link.close)
	chunk := make([]byte, 1<<20)

	return []layerBench{
		{name: "onion.wrap3_us", unit: us, ops: batch, fn: each(wrapFrom(0)), allocs: "onion.wrap3_allocs"},
		{name: "onion.wrap2_us", unit: us, ops: batch, fn: each(wrapFrom(1))},
		{name: "onion.wrap1_us", unit: us, ops: batch, fn: each(wrapFrom(2))},
		{name: "onion.unwrap_us", unit: us, ops: batch, allocs: "onion.unwrap_allocs", fn: each(func(i int) {
			_, _, err := onion.UnwrapLayer(wrap3[i], &k.privs[0], round, 0)
			must(err)
		})},
		{name: "onion.seal_reply_us", unit: us, ops: batch, fn: each(func(i int) {
			onion.SealReply(requests[i][:convo.SealedSize], keys3[i][0], round, 0)
		})},
		{name: "onion.unwrap_reply3_us", unit: us, ops: batch, fn: each(func(i int) {
			_, err := onion.UnwrapReply(sealed3[i], round, 0, keys3[i])
			must(err)
		})},
		{name: "box.precompute_us", unit: us, ops: batch, fn: each(func(int) {
			_, err := box.Precompute(&peerPub, &priv)
			must(err)
		})},
		{name: "box.seal_us", unit: us, ops: batch, fn: each(func(i int) { box.Seal(requests[i], &nonce, boxKey) })},
		{name: "box.open_us", unit: us, ops: batch, fn: each(func(int) {
			_, err := box.Open(boxed, &nonce, boxKey)
			must(err)
		})},
		{name: "convo.build_request_us", unit: us, ops: batch, fn: each(func(int) {
			_, err := convo.BuildRequest(secret, round, &pub, msg)
			must(err)
		})},
		{name: "convo.open_reply_us", unit: us, ops: batch, fn: each(func(int) {
			if _, ok := convo.OpenReply(secret, round, &peerPub, peerSealed.Sealed[:]); !ok {
				panic("bench: layer pass: convo.OpenReply rejected an authentic reply")
			}
		})},
		{name: "convo.noisegen_us", unit: us, ops: batch, fn: func() {
			convo.NoiseGen{Dist: noise.Fixed{N: batch / 2}}.Generate()
		}},
		{name: "convo.process_us", unit: us, ops: batch, fn: func() { convo.Service{}.Process(round, requests) }},
		{name: "shuffle.new_us", unit: us, ops: 1, fn: func() { shuffle.New(batch, nil) }},
		{name: "shuffle.apply_invert_us", unit: us, ops: 1, fn: func() { perm.Invert(perm.Apply(wrap3)) }},
		{name: "wire.encode_us", unit: us, ops: 1, fn: func() { frame.Encode() }},
		{name: "wire.decode_us", unit: us, ops: 1, allocs: "wire.decode_allocs", fn: func() {
			_, err := wire.Decode(encoded)
			must(err)
		}},
		{name: "transport.secure_mb_s", rate: true, ops: 16, fn: func() {
			for i := 0; i < 16; i++ {
				must(link.send(chunk))
			}
		}},
		{name: "transport.handshake_ms", unit: ms, ops: 1, fn: func() { must(link.handshake()) }},
		{name: "roundstate.commit_fsync_ms", unit: ms, ops: 1, fn: func() {
			committed++
			must(counters.Commit(roundstate.ConvoCounter, committed))
		}},
		{name: "dial.build_request_us", unit: us, ops: batch, fn: each(func(int) {
			_, err := dial.BuildRequest(&pub, &peerPub, 1, rng)
			must(err)
		})},
		{name: "dial.noisegen_us", unit: us, ops: batch, fn: func() {
			dial.NoiseGen{Dist: noise.Fixed{N: batch}}.Generate(1)
		}},
		{name: "dial.process_us", unit: us, ops: batch, fn: func() { dial.Service{}.Process(round, 1, dialReqs) }},
		{name: "dial.scan_bucket_us", unit: us, ops: batch, fn: func() { dial.ScanBucket(bucket, &peerPub, &peerPriv) }},
		{name: "mixnet.last_round_us_per_onion", unit: us, ops: batch, fn: func() {
			_, err := last.ConvoRound(round, wrap1)
			must(err)
		}},
	}, cleanup, nil
}

// secureLink is a transport.Secure listener on an in-memory network
// whose accepted connections are drained and acknowledged, for timing
// the record layer and its handshake.
type secureLink struct {
	net      *transport.Mem
	listener io.Closer
	k        *keys
	conn     *transport.Secure
	ack      [1]byte
}

// linkAddr is the secure link's listen address.
const linkAddr = "secure-link"

func newSecureLink(k *keys) (*secureLink, error) {
	mem := transport.NewMem()
	l, err := mem.Listen(linkAddr)
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			// Serve one connection at a time: acknowledge every
			// megabyte read, until the dialler hangs up.
			sec := transport.SecureServerAny(raw, k.privs[0])
			buf := make([]byte, 1<<20)
			for {
				if _, err := io.ReadFull(sec, buf); err != nil {
					break
				}
				if _, err := sec.Write(buf[:1]); err != nil {
					break
				}
			}
			sec.Close()
		}
	}()
	s := &secureLink{net: mem, listener: l, k: k}
	if s.conn, err = s.dial(); err != nil {
		l.Close()
		return nil, err
	}
	return s, nil
}

// dial opens a connection and completes the handshake.
func (s *secureLink) dial() (*transport.Secure, error) {
	raw, err := s.net.Dial(linkAddr)
	if err != nil {
		return nil, err
	}
	sec := transport.SecureClient(raw, s.k.privs[1], s.k.pubs[0])
	if err := sec.Handshake(); err != nil {
		sec.Close()
		return nil, err
	}
	return sec, nil
}

// send pushes one megabyte through the record layer and waits for the
// reader's acknowledgement, so sealing, transfer and opening are all
// inside the timed call.
func (s *secureLink) send(mb []byte) error {
	if _, err := s.conn.Write(mb); err != nil {
		return err
	}
	_, err := io.ReadFull(s.conn, s.ack[:])
	return err
}

// handshake times a fresh dial and key exchange; the listener serves one
// connection at a time, so the long-lived one is replaced.
func (s *secureLink) handshake() error {
	s.conn.Close()
	conn, err := s.dial()
	if err != nil {
		return err
	}
	s.conn = conn
	return nil
}

func (s *secureLink) close() {
	s.conn.Close()
	s.listener.Close()
}

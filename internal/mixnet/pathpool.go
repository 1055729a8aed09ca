package mixnet

import (
	"runtime"
	"sync"

	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/parallel"
)

// pathPool keeps a mixing server's cover traffic off the round's critical
// path: it holds onion paths already agreed with the rest of the chain —
// the Diffie-Hellman that is nearly all of a noise onion's cost and
// depends on nothing a round decides — so that a round only seals its
// noise payloads. The pool refills while the server waits on its
// successor, to as many paths as the last conversation round and the
// last dialing round took between them (the two can be in flight
// together); nothing about the next round is drawn, sealed or numbered
// ahead of it, and paths serve both protocols alike.
//
// Paths are agreed in chunks of onion.PathChunk, by the refill and by a
// get the pool falls short for alike, so each chunk's agreements fill the
// comb's lanes.
//
// Its shared keys tell noise from real onions on the wire for as long as
// they are held: the pool lives in memory only, is handed to no log,
// metric or store, gives each path out once, and is dropped on close.
// Paths of one chunk share a slab, so a path handed out stays reachable
// while the rest of its chunk is held: sealNoise wipes each path once it
// is sealed (docs/THREAT_MODEL.md §3, "Pre-agreed noise paths").
type pathPool struct {
	// peers is the rest of the chain, in order, parsed once by NewServer.
	peers []*box.Peer
	// workers is the server's Config.Workers, resolved: it bounds a get's
	// inline agreement and the refill goroutines alike.
	workers int

	mu sync.Mutex
	// paths are agreed and not yet handed out.
	paths []onion.Path
	// convo and dial are what the last get and the last getDial asked
	// for: a refill restores their sum.
	convo, dial int
	// running counts the refill goroutines, and agreeing the paths they
	// are agreeing outside mu: each a chunk of at most onion.PathChunk.
	running, agreeing int
	// inline counts the paths gets agreed on the spot because the pool
	// fell short.
	inline int
	closed bool
	// refills lets close wait for the refill goroutines.
	refills sync.WaitGroup
}

// newPathPool returns an empty pool of paths to peers: the first round
// agrees its paths itself.
func newPathPool(peers []*box.Peer, workers int) *pathPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &pathPool{peers: peers, workers: workers}
}

// get returns exactly n unused paths for a conversation round: those the
// pool holds, the rest agreed now, as a round without a pool would. It
// then starts the refill back up to n plus the last dialing round's take.
func (pl *pathPool) get(n int) ([]onion.Path, error) { return pl.take(&pl.convo, n) }

// getDial is get for a dialing round.
func (pl *pathPool) getDial(n int) ([]onion.Path, error) { return pl.take(&pl.dial, n) }

func (pl *pathPool) take(last *int, n int) ([]onion.Path, error) {
	out := make([]onion.Path, n)
	pl.mu.Lock()
	held := min(n, len(pl.paths))
	rest := len(pl.paths) - held
	copy(out, pl.paths[rest:])
	// The pool must not keep a handed-out path's keys reachable.
	clear(pl.paths[rest:])
	pl.paths = pl.paths[:rest]
	*last = n
	pl.inline += n - held
	pl.mu.Unlock()

	// The shortfall, split among the workers in parts of whole chunks.
	if short := out[held:]; len(short) > 0 {
		chunks := (len(short) + onion.PathChunk - 1) / onion.PathChunk
		part := (chunks + pl.workers - 1) / pl.workers * onion.PathChunk
		err := parallel.ForErr((len(short)+part-1)/part, pl.workers, func(i int) error {
			return onion.NewPaths(short[i*part:min((i+1)*part, len(short))], pl.peers)
		})
		if err != nil {
			return nil, err
		}
	}

	pl.mu.Lock()
	defer pl.mu.Unlock()
	for pl.running < pl.workers {
		k := pl.claim()
		if k == 0 {
			break
		}
		pl.running++
		pl.refills.Add(1)
		go pl.refill(k)
	}
	return out, nil
}

// claim hands a refill goroutine its next chunk, with mu held: as many
// paths as the pool and the chunks in hand fall short of convo + dial, up
// to onion.PathChunk, so the last chunk is the exact shortfall; none once
// the pool is closed.
func (pl *pathPool) claim() int {
	if pl.closed {
		return 0
	}
	k := max(0, min(onion.PathChunk, pl.convo+pl.dial-len(pl.paths)-pl.agreeing))
	pl.agreeing += k
	return k
}

// refill agrees the chunk of k paths it was handed, appends it so a round
// that arrives mid-refill takes what there is, and claims the next, until
// the pool and the other refill goroutines' chunks between them cover
// convo + dial or the pool closes.
// A failed agreement ends it quietly: the next get meets the same failure
// inline and reports it to its round.
func (pl *pathPool) refill(k int) {
	defer pl.refills.Done()
	var chunk [onion.PathChunk]onion.Path
	for {
		err := onion.NewPaths(chunk[:k], pl.peers)
		pl.mu.Lock()
		pl.agreeing -= k
		if err == nil && !pl.closed {
			pl.paths = append(pl.paths, chunk[:k]...)
		}
		clear(chunk[:k])
		if k = 0; err == nil {
			k = pl.claim()
		}
		if k == 0 {
			pl.running--
			pl.mu.Unlock()
			return
		}
		pl.mu.Unlock()
		// The refill is there to use idle cores. Where a round's own
		// workers are waiting for one, they go first (noise-par: setup_s
		// −7 %, round_ms_p50 −7 % against not yielding).
		runtime.Gosched()
	}
}

// close stops the refill between two paths, waits for its goroutines to
// exit and drops every path held. A get that races it still returns n
// paths, all agreed inline, and starts nothing.
func (pl *pathPool) close() {
	pl.mu.Lock()
	pl.closed = true
	pl.paths = nil
	pl.mu.Unlock()
	pl.refills.Wait()
}

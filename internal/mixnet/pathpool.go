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
// Its shared keys tell noise from real onions on the wire for as long as
// they are held: the pool lives in memory only, is handed to no log,
// metric or store, gives each path out once, and is dropped on close
// (docs/THREAT_MODEL.md §3, "Pre-agreed noise paths").
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
	// running counts the refill goroutines; outside mu each of them is
	// agreeing exactly one path.
	running int
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

	err := parallel.ForErr(n-held, pl.workers, func(i int) (err error) {
		out[held+i], err = onion.NewPath(pl.peers, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	pl.mu.Lock()
	defer pl.mu.Unlock()
	for !pl.closed && pl.running < pl.workers && len(pl.paths)+pl.running < pl.convo+pl.dial {
		pl.running++
		pl.refills.Add(1)
		go pl.refill()
	}
	return out, nil
}

// refill agrees paths one at a time, appending each as it is ready so a
// round that arrives mid-refill takes what there is, until the pool and
// the other refill goroutines between them cover convo + dial or the pool
// closes.
// A failed agreement ends it quietly: the next get meets the same failure
// inline and reports it to its round.
func (pl *pathPool) refill() {
	defer pl.refills.Done()
	for {
		path, err := onion.NewPath(pl.peers, nil)
		pl.mu.Lock()
		if err == nil && !pl.closed {
			pl.paths = append(pl.paths, path)
		}
		// Go round again only if the pool plus the one path each of the
		// other refills has in hand still falls short.
		if err != nil || pl.closed || len(pl.paths)+pl.running-1 >= pl.convo+pl.dial {
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

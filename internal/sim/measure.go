package sim

import (
	"fmt"
	"runtime"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/dial"
	"vuvuzela/internal/mixnet"
	"vuvuzela/internal/noise"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/parallel"
)

// MeasureDHThroughput benchmarks this machine's aggregate X25519
// throughput (ops/sec across all cores) over the given wall-clock budget.
// This is the §8.2 micro-benchmark ("Each 36-core machine can perform
// about 340,000 Curve25519 Diffie-Hellman operations per second"). One
// operation is one scalar mult plus the HSalsa20 key derivation, timed as
// a server pays it per onion: a parsed key's exchanges in batches of
// box.MaxBatch under one field inversion, the chunks a large round
// unwraps in (DHKey.PrecomputeBatch). Timing single exchanges, or the
// raw-key box.Precompute with its key parse's second mult, would put
// CryptoLowerBound above what the servers achieve.
func MeasureDHThroughput(budget time.Duration) float64 {
	key, err := box.GenerateDHKey(nil)
	if err != nil {
		return 0
	}
	peer, _, err := box.GenerateKey(nil)
	if err != nil {
		return 0
	}
	var peers [box.MaxBatch]*box.PublicKey
	for i := range peers {
		peers[i] = &peer
	}
	workers := runtime.GOMAXPROCS(0)
	const batches = 4
	start := time.Now()
	total := 0
	for time.Since(start) < budget {
		parallel.For(workers*batches, workers, func(int) {
			var shared [box.MaxBatch][box.KeySize]byte
			var errs [box.MaxBatch]error
			key.PrecomputeBatch(shared[:], peers[:], errs[:])
			if errs != [box.MaxBatch]error{} {
				panic(errs)
			}
		})
		total += workers * batches * box.MaxBatch
	}
	return float64(total) / time.Since(start).Seconds()
}

// MeasuredModel benchmarks this machine and returns a cost model with the
// paper's fitted overhead factor but local crypto throughput, letting the
// figure harness print both "this machine" and "paper testbed" series.
func MeasuredModel(budget time.Duration) CostModel {
	m := PaperModel()
	m.DHOpsPerSec = MeasureDHThroughput(budget)
	return m
}

// MeasuredPoint is one measured round.
type MeasuredPoint struct {
	Users   int           // real users in the round
	Mu      int           // per-server noise mean µ
	Servers int           // chain length
	Latency time.Duration // wall-clock for the round
	// Msgs is the number of real user messages in the round; Msgs/Latency
	// is the measured single-round throughput.
	Msgs int
}

// Throughput returns messages/second for the measured round.
func (p MeasuredPoint) Throughput() float64 {
	if p.Latency <= 0 {
		return 0
	}
	return float64(p.Msgs) / p.Latency.Seconds()
}

// MeasureConvoRound runs one real conversation round through a fresh
// ChainNet, timed at its head (cn.Servers[0]): `users` conversing
// clients (half pairs exchanging messages),
// fixed noise µ per mixing server (the paper's evaluation also fixes noise
// at exactly µ, §8.1). Request building is excluded from the timing — the
// paper measures server-side round latency with client load generated by
// separate machines — and so is connection setup: the hops dial and
// handshake on their first round, so an empty round 1 warms them up and
// round 2 is the one timed (Figures 9–11 are steady-state rounds).
func MeasureConvoRound(users, mu, servers int) (MeasuredPoint, error) {
	return MeasureConvoRoundWorkers(users, mu, servers, 0)
}

// MeasureConvoRoundWorkers is MeasureConvoRound with an explicit crypto
// worker-pool size per server (0 = all cores) — used by the worker-
// scaling ablation bench.
func MeasureConvoRoundWorkers(users, mu, servers, workers int) (MeasuredPoint, error) {
	cn, err := NewChainNet(ChainNetConfig{
		Servers: servers,
		Chain:   mixnet.Config{ConvoNoise: noise.Fixed{N: mu}, Workers: workers},
	})
	if err != nil {
		return MeasuredPoint{}, err
	}
	defer cn.Close()

	const round = 2
	onions, err := conversingOnions(users, round, cn.Pubs)
	if err != nil {
		return MeasuredPoint{}, err
	}
	head := cn.Servers[0]
	if _, err := head.ConvoRound(round-1, nil); err != nil {
		return MeasuredPoint{}, fmt.Errorf("sim: warm-up round: %w", err)
	}

	start := time.Now()
	replies, err := head.ConvoRound(round, onions)
	elapsed := time.Since(start)
	if err != nil {
		return MeasuredPoint{}, err
	}
	if len(replies) != users {
		return MeasuredPoint{}, fmt.Errorf("sim: %d replies for %d users", len(replies), users)
	}
	return MeasuredPoint{Users: users, Mu: mu, Servers: servers, Latency: elapsed, Msgs: users}, nil
}

// conversingOnions builds one round's client load: users/2 conversing
// pairs (every user sends a message each round, §8.1), plus one
// indistinguishable fake request if users is odd.
func conversingOnions(users int, round uint64, pubs []box.PublicKey) ([][]byte, error) {
	onions := make([][]byte, users)
	buildErr := parallel.ForErr(users/2, 0, func(p int) error {
		seedA := fmt.Sprintf("sim-user-%d-a", p)
		seedB := fmt.Sprintf("sim-user-%d-b", p)
		aPub, aPriv := box.KeyPairFromSeed([]byte(seedA))
		bPub, bPriv := box.KeyPairFromSeed([]byte(seedB))
		sA, err := convo.DeriveSecret(&aPriv, &bPub)
		if err != nil {
			return err
		}
		sB, err := convo.DeriveSecret(&bPriv, &aPub)
		if err != nil {
			return err
		}
		reqA, err := convo.BuildRequest(sA, round, &aPub, []byte("m"))
		if err != nil {
			return err
		}
		reqB, err := convo.BuildRequest(sB, round, &bPub, []byte("m"))
		if err != nil {
			return err
		}
		oA, _, err := onion.Wrap(reqA.Marshal(), round, 0, pubs, nil)
		if err != nil {
			return err
		}
		oB, _, err := onion.Wrap(reqB.Marshal(), round, 0, pubs, nil)
		if err != nil {
			return err
		}
		onions[2*p] = oA
		onions[2*p+1] = oB
		return nil
	})
	if buildErr != nil {
		return nil, buildErr
	}
	if users%2 == 1 {
		req, err := convo.BuildRequest(nil, round, nil, nil)
		if err != nil {
			return nil, err
		}
		o, _, err := onion.Wrap(req.Marshal(), round, 0, pubs, nil)
		if err != nil {
			return nil, err
		}
		onions[users-1] = o
	}
	return onions, nil
}

// MeasureDialRound runs one real dialing round: `users` clients of whom
// dialingFraction dial (the rest no-op), fixed per-bucket noise µd, m
// buckets. As in MeasureConvoRound, an empty round 1 warms the hops up and
// round 2 is timed.
func MeasureDialRound(users int, dialingFraction float64, muD int, m uint32, servers int) (MeasuredPoint, error) {
	cn, err := NewChainNet(ChainNetConfig{
		Servers: servers,
		Chain:   mixnet.Config{DialNoise: noise.Fixed{N: muD}},
	})
	if err != nil {
		return MeasuredPoint{}, err
	}
	defer cn.Close()
	head, pubs := cn.Servers[0], cn.Pubs

	const round = 2
	dialers := int(float64(users) * dialingFraction)
	onions := make([][]byte, users)
	buildErr := parallel.ForErr(users, 0, func(i int) error {
		pub, _ := box.KeyPairFromSeed([]byte(fmt.Sprintf("dialer-%d", i)))
		var recipient *box.PublicKey
		if i < dialers {
			r, _ := box.KeyPairFromSeed([]byte(fmt.Sprintf("callee-%d", i)))
			recipient = &r
		}
		req, err := dial.BuildRequest(&pub, recipient, m, nil)
		if err != nil {
			return err
		}
		o, _, err := onion.Wrap(req.Marshal(), round, 0, pubs, nil)
		if err != nil {
			return err
		}
		onions[i] = o
		return nil
	})
	if buildErr != nil {
		return MeasuredPoint{}, buildErr
	}

	if err := head.DialRound(round-1, m, nil); err != nil {
		return MeasuredPoint{}, fmt.Errorf("sim: warm-up round: %w", err)
	}

	start := time.Now()
	err = head.DialRound(round, m, onions)
	elapsed := time.Since(start)
	if err != nil {
		return MeasuredPoint{}, err
	}
	return MeasuredPoint{Users: users, Mu: muD, Servers: servers, Latency: elapsed, Msgs: dialers}, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"vuvuzela/internal/convo"
	"vuvuzela/internal/crypto/box"
	"vuvuzela/internal/onion"
	"vuvuzela/internal/transport"
)

// baselineSecureMBps is the secure_mb_per_s this machine measured before
// the zero-copy record-layer rebuild (the committed BENCH_shardnet.json
// baseline behind the 164× overhead finding). The record bench reports
// its best point as a multiple of this so the regained throughput is
// pinned in BENCH_transport.json, not just in a PR description.
const baselineSecureMBps = 120.9

// recordPoint is one measured record-layer configuration.
type recordPoint struct {
	Suite        string  `json:"suite"`
	RecordBytes  int     `json:"record_bytes"`
	MBps         float64 `json:"mb_per_s"`
	AllocsPerRec float64 `json:"allocs_per_record"`
}

// transportBaseline is the full `record -json` output shape.
type transportBaseline struct {
	Cores            int           `json:"cores"`
	PayloadBytes     int           `json:"payload_bytes"`
	RunsPerPoint     int           `json:"runs_per_point"`
	BaselineMBps     float64       `json:"baseline_secure_mb_per_s"`
	Points           []recordPoint `json:"record_points"`
	BestSuite        string        `json:"best_suite"`
	BestMBps         float64       `json:"best_secure_mb_per_s"`
	SpeedupX         float64       `json:"speedup_vs_baseline"`
	OnionLayers      int           `json:"onion_layers"`
	OnionBytes       int           `json:"onion_bytes"`
	OnionUnwrapOpsPS float64       `json:"onion_unwrap_ops_per_s"`
}

// median returns the middle value of xs (mean of the middle two for even
// counts). xs is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// recordBenchKeys returns the deterministic long-term keys the record
// bench connects with.
func recordBenchKeys() (box.PublicKey, box.PrivateKey, box.PublicKey, box.PrivateKey) {
	cPub, cPriv := box.KeyPairFromSeed([]byte("bench-client"))
	sPub, sPriv := box.KeyPairFromSeed([]byte("bench-server"))
	return cPub, cPriv, sPub, sPriv
}

// recordPipe builds a handshaken Secure pair over an in-memory pipe for
// the given suite and record size, with a reader goroutine draining the
// server side in record-sized chunks.
func recordPipe(suite box.Suite, recSize int) (*transport.Secure, func(), error) {
	cPub, cPriv, sPub, sPriv := recordBenchKeys()
	cc, sc := net.Pipe()
	opts := []transport.SecureOption{transport.WithSuite(suite), transport.WithRecordSize(recSize)}
	client := transport.SecureClient(cc, cPriv, sPub, opts...)
	server := transport.SecureServer(sc, sPriv, []box.PublicKey{cPub}, opts...)
	go func() {
		sink := make([]byte, recSize)
		for {
			if _, err := io.ReadFull(server, sink); err != nil {
				return
			}
		}
	}()
	if err := client.Handshake(); err != nil {
		cc.Close()
		sc.Close()
		return nil, nil, err
	}
	return client, func() { cc.Close(); sc.Close() }, nil
}

// recordMBps measures steady-state record-layer throughput for one
// (suite, record size) point: one warmup pass, then the median of `runs`
// timed pumps over the SAME connection, so buffers and key schedules are
// warm and the number reflects the sustained path, not setup. Each Write
// is exactly one record. net.Pipe is synchronous, so every run times
// seal + framing + the peer's open of the same bytes.
func recordMBps(suite box.Suite, recSize, payload, runs int) (float64, error) {
	client, closeFn, err := recordPipe(suite, recSize)
	if err != nil {
		return 0, err
	}
	defer closeFn()
	buf := make([]byte, recSize)
	pumpOne := func(n int) (float64, error) {
		start := time.Now()
		for sent := 0; sent < n; sent += len(buf) {
			if _, err := client.Write(buf); err != nil {
				return 0, err
			}
		}
		return float64(n) / (1 << 20) / time.Since(start).Seconds(), nil
	}
	if _, err := pumpOne(payload / 4); err != nil {
		return 0, err
	}
	vals := make([]float64, 0, runs)
	for i := 0; i < runs; i++ {
		v, err := pumpOne(payload)
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

// recordAllocs measures steady-state heap allocations per record for one
// suite: the writer seals a record and waits for the reader to fully
// deliver it, in lockstep, so testing.AllocsPerRun (which counts mallocs
// process-wide) covers both directions of exactly one record per run.
func recordAllocs(suite box.Suite, recSize, runs int) (float64, error) {
	cPub, cPriv, sPub, sPriv := recordBenchKeys()
	cc, sc := net.Pipe()
	defer cc.Close()
	defer sc.Close()
	opts := []transport.SecureOption{transport.WithSuite(suite), transport.WithRecordSize(recSize)}
	client := transport.SecureClient(cc, cPriv, sPub, opts...)
	server := transport.SecureServer(sc, sPriv, []box.PublicKey{cPub}, opts...)

	payload := make([]byte, recSize)
	sink := make([]byte, recSize)
	delivered := make(chan struct{})
	go func() {
		for {
			if _, err := io.ReadFull(server, sink); err != nil {
				close(delivered)
				return
			}
			delivered <- struct{}{}
		}
	}()
	var pumpErr error
	pump := func() {
		if _, err := client.Write(payload); err != nil {
			pumpErr = err
			return
		}
		<-delivered
	}
	for i := 0; i < 3; i++ { // warm up: handshake, buffer growth, key setup
		pump()
	}
	if pumpErr != nil {
		return 0, pumpErr
	}
	avg := testing.AllocsPerRun(runs, pump)
	return avg, pumpErr
}

// onionUnwrapOpsPerSec measures one server's onion-unwrap rate on a
// request-sized onion (§8.2's dominant server cost: an X25519 shared-key
// derivation plus an AEAD open per onion per server), with the key parsed
// once as mixnet.Server holds it.
func onionUnwrapOpsPerSec(iters int) (float64, error) {
	pubs := make([]box.PublicKey, 3)
	privs := make([]box.PrivateKey, 3)
	for i := range pubs {
		pubs[i], privs[i] = box.KeyPairFromSeed([]byte(fmt.Sprintf("bench-chain-%d", i)))
	}
	payload := make([]byte, convo.RequestSize)
	wrapped, _, err := onion.Wrap(payload, 1, 0, pubs, nil)
	if err != nil {
		return 0, err
	}
	key, err := box.NewDHKey(&privs[0])
	if err != nil {
		return 0, err
	}
	if _, _, err := onion.Unwrap(wrapped, key, 1, 0); err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, _, err := onion.Unwrap(wrapped, key, 1, 0); err != nil {
			return 0, err
		}
	}
	return float64(iters) / time.Since(start).Seconds(), nil
}

// record benchmarks the secure record layer itself: steady-state MB/s
// and allocations per record for both AEAD suites at the legacy 64 KiB
// and the current default record size, plus the onion-unwrap rate that
// bounds chain throughput (§8.2). -quick shrinks every iteration count
// to a CI smoke test; -json writes the points (e.g. BENCH_transport.json).
func record() {
	header("secure record layer: throughput and allocations per record")
	payload := 8 << 20
	runs := 5
	allocRuns := 100
	onionIters := 2000
	if *quick {
		payload = 1 << 20
		runs = 1
		allocRuns = 10
		onionIters = 50
	}
	out := transportBaseline{
		Cores:        runtime.NumCPU(),
		PayloadBytes: payload,
		RunsPerPoint: runs,
		BaselineMBps: baselineSecureMBps,
		OnionLayers:  3,
	}
	fmt.Printf("  %d MiB per run, median of %d runs per point, in-memory pipe:\n", payload>>20, runs)
	for _, suite := range []box.Suite{box.NaClSuite{}, box.GCMSuite{}} {
		for _, recSize := range []int{1 << 16, 1 << 18} {
			mbps, err := recordMBps(suite, recSize, payload, runs)
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			allocs, err := recordAllocs(suite, recSize, allocRuns)
			if err != nil {
				fmt.Println("  error:", err)
				return
			}
			fmt.Printf("  %-18s %4d KiB records: %8.1f MB/s, %.1f allocs/record\n",
				suite.Name(), recSize>>10, mbps, allocs)
			out.Points = append(out.Points, recordPoint{
				Suite: suite.Name(), RecordBytes: recSize, MBps: mbps, AllocsPerRec: allocs,
			})
			if mbps > out.BestMBps {
				out.BestSuite, out.BestMBps = suite.Name(), mbps
			}
		}
	}
	out.SpeedupX = out.BestMBps / out.BaselineMBps
	fmt.Printf("  best: %.1f MB/s (%s) = %.1fx the committed %.1f MB/s baseline\n",
		out.BestMBps, out.BestSuite, out.SpeedupX, out.BaselineMBps)

	ops, err := onionUnwrapOpsPerSec(onionIters)
	if err != nil {
		fmt.Println("  error:", err)
		return
	}
	out.OnionBytes = onion.Size(convo.RequestSize, 3)
	out.OnionUnwrapOpsPS = ops
	fmt.Printf("  onion unwrap: %.0f ops/s on %d-byte request onions (3 layers;\n", ops, out.OnionBytes)
	fmt.Println("  an X25519 derivation + AEAD open per onion — §8.2's dominant server cost)")

	if *jsonOut != "" {
		buf, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			fmt.Println("  json error:", err)
			return
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fmt.Println("  json error:", err)
			return
		}
		fmt.Printf("  wrote %s\n", *jsonOut)
	}
}

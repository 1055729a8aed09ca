package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"vuvuzela/internal/sim"
	"vuvuzela/internal/transport"
	"vuvuzela/internal/wire"
)

// roundTimeout bounds how long the driver waits for the generators'
// verdicts after RunConvoRound returned; a round that misses it is
// counted as failed and its cycle abandoned.
const roundTimeout = 10 * time.Second

// minCycles is the fewest fresh deployments a run measures, however
// short -seconds is.
const minCycles = 3

// scratchDir is where a run keeps what it writes: durable workloads'
// round-state directories (real fsyncs on the checkout's filesystem) and
// the trace files. It is relative to the working directory, which the
// launcher makes the checkout root, next to the build cache.
const scratchDir = ".bench_build"

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cycle is what one fresh deployment measured.
type cycle struct {
	// setup is deployment construction, generator connections,
	// readiness, and the warm-up rounds.
	setup time.Duration
	// roundNs are the measured rounds' latencies: RunConvoRound call →
	// last generator has received and verified its reply frame.
	roundNs []int64
	// dialNs are the dialing rounds' RunDialRound durations.
	dialNs []int64
	// wall, cpu, mallocs and allocBytes cover the measured phase, gaps
	// between rounds and concurrent dialing rounds included; msgs is the
	// verified conversation messages delivered in it.
	wall, cpu           time.Duration
	mallocs, allocBytes uint64
	msgs                int
	// attempted and failed count operations over the whole cycle, warm-up
	// included: one per user per conversation round, one per dialing
	// round.
	attempted, failed int
	// traced cycles also carry their spans and the measured phase's
	// traffic.
	traced            bool
	spans             []span
	wireBytes, writes int
	// quiet maps the traced rounds no dialing round overlapped to their
	// latency; the per-layer figures are taken over these.
	index int
	quiet map[uint64]int64
}

// runCycle brings up a fresh deployment, connects the generators, runs
// the warm-up and measured rounds closed-loop with one round in flight,
// and tears everything down. An error is a harness failure; failed
// operations are counted in the cycle instead. index numbers the cycle
// within its run; traced puts the deployment on a traced network.
func runCycle(in *inputs, opt runOptions, index int, traced bool) (*cycle, error) {
	w := in.w
	cy := &cycle{traced: traced, index: index, quiet: make(map[uint64]int64)}
	runtime.GC()
	start := time.Now()

	var nw transport.Network = transport.NewMem()
	var tn *tracedNet
	if traced {
		tn = newTracedNet(nw)
		nw = tn
	}
	d, err := newDeployment(deployConfig{
		w: w, keys: in.keys, net: nw,
		clients: in.gens, exchanges: w.users / in.gens,
		stateRoot: opt.scratch,
	})
	if err != nil {
		return nil, err
	}
	results := make(chan genResult, in.gens*in.rounds)
	var gens sync.WaitGroup
	var conns []*wire.Conn
	stop := sync.OnceFunc(func() {
		for _, c := range conns {
			c.Close()
		}
		d.Close()
		gens.Wait()
	})
	defer stop()
	for g := 0; g < in.gens; g++ {
		raw, err := nw.Dial(d.clientAddrs[g%len(d.clientAddrs)])
		if err != nil {
			return nil, fmt.Errorf("bench: connecting generator %d: %w", g, err)
		}
		gen := &generator{idx: g, in: in, conn: wire.NewConn(raw), results: results, corrupt: opt.corrupt}
		conns = append(conns, gen.conn)
		gens.Add(1)
		go func() {
			defer gens.Done()
			gen.run()
		}()
	}
	if err := d.waitReady(); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// round runs one conversation round and returns its latency; ok is
	// false when the cycle cannot continue.
	round := func() (lat time.Duration, win window, ok bool) {
		if tn != nil {
			win.start = tn.now()
		}
		t0 := time.Now()
		cy.attempted += w.users
		r, parts, err := d.coord.RunConvoRound(ctx)
		if err != nil || parts != in.gens {
			fmt.Fprintf(os.Stderr, "bench: %s: round %d failed: %d of %d connections took part: %v\n", w.name, r, parts, in.gens, err)
			cy.failed += w.users
			return 0, win, false
		}
		verified := 0
		timeout := time.NewTimer(roundTimeout)
		defer timeout.Stop()
		for g := 0; g < in.gens; g++ {
			select {
			case res := <-results:
				if res.round != r {
					res.ok, res.bad = 0, res.ok+res.bad
				}
				verified += res.ok
			case <-timeout.C:
				fmt.Fprintf(os.Stderr, "bench: %s: round %d: timed out waiting for the generators' replies\n", w.name, r)
				cy.failed += w.users - verified
				return 0, win, false
			}
		}
		lat = time.Since(t0)
		if tn != nil {
			win.end = tn.now()
		}
		cy.failed += w.users - verified
		cy.msgs += verified
		return lat, win, true
	}

	for i := 0; i < warmupRounds; i++ {
		if _, _, ok := round(); !ok {
			return cy, nil
		}
	}
	cy.setup = time.Since(start)
	cy.msgs = 0

	// dialRound runs one dialing round beside the conversation rounds
	// and checks the published bucket.
	var dialing sync.WaitGroup
	var dialWins []window
	dialFailed := 0
	dialRound := func() {
		defer dialing.Done()
		var win window
		if tn != nil {
			win.start = tn.now()
		}
		t0 := time.Now()
		r, parts, err := d.coord.RunDialRound(ctx)
		cy.dialNs = append(cy.dialNs, int64(time.Since(t0)))
		if tn != nil {
			win.end = tn.now()
			dialWins = append(dialWins, win)
		}
		b, published := d.buckets.Buckets(r)
		if err != nil || parts != in.gens || !published || !in.checkInvitation(b) {
			fmt.Fprintf(os.Stderr, "bench: %s: dialing round %d failed (%d of %d connections, published=%v): %v\n", w.name, r, parts, in.gens, published, err)
			dialFailed++
		}
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, wall0 := cpuTime(), time.Now()
	var phase window
	if tn != nil {
		phase.start = tn.now()
	}
	var wins []window
	for i := 0; i < w.rounds; i++ {
		if w.dial && i%dialEvery == 0 {
			// One dialing round at a time: dialRound's bookkeeping
			// (dialNs, dialWins, dialFailed) is its own, ordered by
			// this Wait.
			dialing.Wait()
			cy.attempted++
			dialing.Add(1)
			go dialRound()
		}
		lat, win, ok := round()
		if !ok {
			break
		}
		cy.roundNs = append(cy.roundNs, int64(lat))
		wins = append(wins, win)
	}
	dialing.Wait()
	cy.failed += dialFailed
	cy.wall, cy.cpu = time.Since(wall0), cpuTime()-cpu0
	runtime.ReadMemStats(&mem1)
	cy.mallocs, cy.allocBytes = mem1.Mallocs-mem0.Mallocs, mem1.TotalAlloc-mem0.TotalAlloc

	if tn != nil {
		phase.end = tn.now()
		// Every writer must have stopped before the events are read.
		stop()
		for i, win := range wins {
			shared := false
			for _, dw := range dialWins {
				shared = shared || win.overlaps(dw)
			}
			r := uint64(warmupRounds + i + 1)
			cy.spans = append(cy.spans, tn.roundSpans(index, r, win, shared)...)
			if !shared {
				cy.quiet[r] = cy.roundNs[i]
			}
		}
		cy.wireBytes, cy.writes = tn.traffic(phase)
	}
	return cy, nil
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs (0 for none), interpolating
// between ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// result is one run of one workload.
type result struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	// Correct is false when any operation failed.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Cycles and Rounds are the sample counts behind the figures: fresh
	// deployments measured, and conversation rounds timed in them.
	Cycles int `json:"cycles"`
	Rounds int `json:"rounds"`
	// Metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run), by name.
	Metrics map[string]value `json:"metrics"`
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOptions are the smoke test's hooks into runWorkload; the zero value
// is a real run.
type runOptions struct {
	// scratch overrides scratchDir.
	scratch string
	// corrupt is handed to every generator (see generator.corrupt).
	corrupt func(round uint64, replies [][]byte)
	// layerBatch and layerBudget shrink the layer pass's batch and the
	// time it may take.
	layerBatch  int
	layerBudget time.Duration
}

// runWorkload measures one workload for about the given duration: with
// tracing off it reports the end-to-end metrics; with tracing on it
// alternates plain and traced cycles, then times the layers' functions
// directly, and reports the per-layer metrics.
func runWorkload(w workload, seed int64, seconds time.Duration, traced bool, opt runOptions) (*result, error) {
	if opt.scratch == "" {
		opt.scratch = scratchDir
	}
	if opt.layerBatch == 0 {
		opt.layerBatch = layerBatch
	}
	in, err := buildInputs(w, seed, numGenerators())
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.scratch, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	res := &result{Workload: w.name, Seed: seed, Traced: traced, Metrics: make(map[string]value)}

	cycleBudget := seconds
	if traced {
		// The rest of a traced run is the layer pass.
		cycleBudget = seconds * 6 / 10
	}
	var plain, tracedCycles []*cycle
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minCycles
		if traced {
			enough = len(plain) >= 1 && len(tracedCycles) >= 1 && i%2 == 0
		}
		if enough && time.Since(start) >= cycleBudget {
			break
		}
		cy, err := runCycle(in, opt, i, traced && i%2 == 1)
		if err != nil {
			return nil, err
		}
		logCycle(w.name, i, cy)
		res.Attempted += cy.attempted
		res.Failed += cy.failed
		res.Cycles++
		res.Rounds += len(cy.roundNs)
		if cy.traced {
			tracedCycles = append(tracedCycles, cy)
		} else {
			plain = append(plain, cy)
		}
	}
	res.Correct = res.Failed == 0
	if roundsOf(plain) == 0 || (traced && roundsOf(tracedCycles) == 0) {
		return nil, fmt.Errorf("bench: %s: no round completed (%d of %d operations failed)", w.name, res.Failed, res.Attempted)
	}

	if !traced {
		endToEndMetrics(res, plain)
		return res, nil
	}
	traceMetrics(res, in, plain, tracedCycles)
	budget := seconds - cycleBudget
	if opt.layerBudget > 0 {
		budget = opt.layerBudget
	}
	if err := layerMetrics(res, seed, opt.scratch, opt.layerBatch, budget); err != nil {
		return nil, err
	}
	if err := writeTrace(opt.scratch, w.name, tracedCycles); err != nil {
		return nil, err
	}
	return res, nil
}

// logCycle prints one cycle's figures on standard error, the raw
// material of the run's figures.
func logCycle(name string, i int, cy *cycle) {
	if cy.msgs == 0 {
		fmt.Fprintf(os.Stderr, "bench: %s cycle %d: no messages delivered, %d of %d operations failed\n", name, i, cy.failed, cy.attempted)
		return
	}
	msgs := float64(cy.msgs)
	fmt.Fprintf(os.Stderr, "bench: %s cycle %d (traced=%v): setup %.3f s, %d rounds p50 %.2f ms, %.1f msgs/s, %.4f cpu-ms/msg, %.2f allocs/msg, %.3f KiB/msg\n",
		name, i, cy.traced, cy.setup.Seconds(), len(cy.roundNs), median(roundMs(cy)),
		msgs/cy.wall.Seconds(), cy.cpu.Seconds()*1e3/msgs, float64(cy.mallocs)/msgs, float64(cy.allocBytes)/1024/msgs)
}

func roundsOf(cycles []*cycle) int {
	n := 0
	for _, cy := range cycles {
		n += len(cy.roundNs)
	}
	return n
}

// roundMs returns every measured round latency of cycles in ms.
func roundMs(cycles ...*cycle) []float64 {
	var ms []float64
	for _, cy := range cycles {
		for _, ns := range cy.roundNs {
			ms = append(ms, float64(ns)/1e6)
		}
	}
	return ms
}

// perCycle reduces one figure per cycle to the run's figure: the best
// cycle's. Every cycle is a complete, independent measurement of the
// same deployment and load, and what the shared host adds to one — a
// neighbour's burst, a core running at half speed — only ever makes it
// slower, in stretches that last from seconds to minutes and can cover
// most of a run; the least disturbed cycle is the only statistic that
// survives that (README, "Baseline and noise", has the comparison with
// medians and quartiles). A cycle's own figure is still a median over
// its rounds or a total over its measured phase, never a single sample.
func perCycle(cycles []*cycle, higherBetter bool, f func(*cycle) float64) float64 {
	best := 0.0
	for _, cy := range cycles {
		if cy.msgs == 0 {
			continue
		}
		if v := f(cy); best == 0 || (v > best) == higherBetter {
			best = v
		}
	}
	return best
}

func (r *result) set(name string, v float64) {
	for _, table := range [][]metric{endToEnd, perLayer} {
		for _, m := range table {
			if m.name == name {
				r.Metrics[name] = value{Value: v, Unit: m.unit}
				return
			}
		}
	}
	panic("bench: undeclared metric " + name)
}

// endToEndMetrics fills in the metrics a user of the system would see.
func endToEndMetrics(res *result, cycles []*cycle) {
	res.set("setup_s", perCycle(cycles, false, func(cy *cycle) float64 { return cy.setup.Seconds() }))
	res.set("round_ms_p50", perCycle(cycles, false, func(cy *cycle) float64 { return median(roundMs(cy)) }))
	res.set("msgs_per_s", perCycle(cycles, true, func(cy *cycle) float64 { return float64(cy.msgs) / cy.wall.Seconds() }))
	res.set("cpu_ms_per_msg", perCycle(cycles, false, func(cy *cycle) float64 { return cy.cpu.Seconds() * 1e3 / float64(cy.msgs) }))
	res.set("allocs_per_msg", perCycle(cycles, false, func(cy *cycle) float64 { return float64(cy.mallocs) / float64(cy.msgs) }))
	res.set("alloc_kb_per_msg", perCycle(cycles, false, func(cy *cycle) float64 { return float64(cy.allocBytes) / 1024 / float64(cy.msgs) }))
}

// traceMetrics fills in the per-layer metrics cut from the traced
// cycles, and the two ratios that say whether the trace can be trusted.
//
// Medians of parts do not add up to the median of the whole, so a span's
// figure is its mean over the typical rounds — the middle half of the
// traced rounds by latency, dialing-overlapped rounds left out. Over
// those rounds the top-level spans tile the mean latency exactly;
// trace.sum_ratio holds that sum against the median latency.
func traceMetrics(res *result, in *inputs, plain, traced []*cycle) {
	w := in.w
	type roundKey struct {
		cycle int
		round uint64
	}
	var quiet []float64
	for _, cy := range traced {
		for _, ns := range cy.quiet {
			quiet = append(quiet, float64(ns)/1e6)
		}
	}
	lo, hi := quantile(quiet, 0.25), quantile(quiet, 0.75)
	typical := make(map[roundKey]bool)
	for _, cy := range traced {
		for r, ns := range cy.quiet {
			if ms := float64(ns) / 1e6; ms >= lo && ms <= hi {
				typical[roundKey{cy.index, r}] = true
			}
		}
	}

	// Sum each span name per (round, leg) first — a pipe leg has three
	// frontend.pipe spans per round, the chain six leg_xfer spans per
	// round across its legs — then average those sums.
	type key struct {
		roundKey
		leg string
	}
	sums := make(map[string]map[key]float64)
	for _, cy := range traced {
		for _, s := range cy.spans {
			k := key{roundKey{s.Cycle, s.Round}, s.Leg}
			if !typical[k.roundKey] {
				continue
			}
			if s.Name == legXfer {
				k.leg = ""
			}
			if sums[s.Name] == nil {
				sums[s.Name] = make(map[key]float64)
			}
			sums[s.Name][k] += (s.End - s.Start) / 1e3
		}
	}
	mean := func(name string) float64 {
		total := 0.0
		for _, v := range sums[name] {
			total += v
		}
		return total / float64(max(1, len(sums[name])))
	}
	for _, name := range []string{
		"coordinator.collect", "coordinator.fanout", "frontend.collect", "frontend.pipe",
		"mixnet.hop0.fwd", "mixnet.hop1.fwd", "mixnet.last.exchange", "mixnet.hop1.back",
		"mixnet.hop0.back", "mixnet.shard.rpc", "roundstate.commit", legXfer,
	} {
		res.set(name+"_ms", mean(name))
	}
	var dialMs []float64
	for _, cycles := range [][]*cycle{plain, traced} {
		for _, cy := range cycles {
			for _, ns := range cy.dialNs {
				dialMs = append(dialMs, float64(ns)/1e6)
			}
		}
	}
	res.set("dial.round_ms", median(dialMs))

	tracedP50, plainP50 := median(roundMs(traced...)), median(roundMs(plain...))
	total := 0.0
	for _, name := range topLevel {
		total += mean(name)
	}
	res.set("trace.sum_ratio", total/median(quiet))
	res.set("trace.overhead_ratio", tracedP50/plainP50)
	res.set("round.ms_p90", quantile(roundMs(plain...), 0.9))
	res.set("transport.wire_kb_per_msg", perCycle(traced, false, func(cy *cycle) float64 { return float64(cy.wireBytes) / 1024 / float64(cy.msgs) }))
	res.set("transport.writes_per_round", perCycle(traced, false, func(cy *cycle) float64 { return float64(cy.writes) / float64(len(cy.roundNs)) }))
	res.set("loadgen.prebuild_s", in.buildWall.Seconds())
	res.set("loadgen.client_cpu_us_per_msg", in.buildCPU.Seconds()*1e6/float64(in.onions))

	floor := sim.MeasuredModel(200*time.Millisecond).CryptoLowerBound(w.users, float64(w.mu), chainServers)
	res.set("model.floor_ratio", plainP50/(floor.Seconds()*1e3))
}

package main

import "fmt"

// chainServers is the chain length of every workload (the paper's §8.1
// default).
const chainServers = 3

// warmupRounds is how many rounds of every fresh deployment are run and
// verified but not measured: round 1 carries every leg's handshake and
// lazy dial, round 2 lets the heap reach its steady size.
const warmupRounds = 2

// dialEvery starts a dialing round concurrently with every dialEvery-th
// measured conversation round on workloads that run the dialing protocol.
const dialEvery = 8

// workload is one fixed deployment shape and load. There are no size
// flags: these constants are the benchmark, sized so that on two cores a
// cycle (fresh deployment, warm-up, rounds measured rounds) takes about
// two seconds and a 20-second run holds nine or more cycles.
type workload struct {
	// name is the -workload value.
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json).
	why string
	// users is the number of conversing users (all paired, all active).
	users int
	// mu is the fixed conversation noise per mixing server (noise.Fixed).
	mu int
	// workers is mixnet.Config.Workers on every chain server and shard
	// (0 = all cores).
	workers int
	// rounds is the measured rounds per cycle.
	rounds int
	// frontends and shards add the entry-frontend tier and the networked
	// dead-drop shards; durable gives every stateful role a write-ahead
	// round-state file; dial runs the dialing protocol alongside.
	frontends, shards int
	durable, dial     bool
}

// workloads is the benchmark's workload table, in report order.
var workloads = []workload{
	{
		name:  "users-par",
		why:   "User onions are ~95% of each batch: per-onion unwrap, reply sealing, batch copies and the record layer do the work; noise wrapping does almost none.",
		users: 600, mu: 10, rounds: 16,
	},
	{
		name:  "noise-par",
		why:   "Cover traffic is ~90% of the work and both cores are saturated: noise generation and wrapping dominate, so moving work off the critical path cannot help here.",
		users: 40, mu: 100, rounds: 16,
	},
	{
		name:  "noise-serial",
		why:   "Same load as noise-par with one worker per server, as when each hop is its own machine: one core is always idle, so only here can overlapping work shorten a round.",
		users: 40, mu: 100, workers: 1, rounds: 8,
	},
	{
		name:  "full-small",
		why:   "Smallest batches through every role (2 frontends, 2 shards, durable round state, concurrent dialing): per-round fixed cost dominates and onion crypto does least.",
		users: 40, mu: 5, rounds: 40,
		frontends: 2, shards: 2, durable: true, dial: true,
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric declares one reported number. The tables below are the single
// source for what a run prints; BENCHMARK.json repeats them and the smoke
// test holds the two together.
type metric struct {
	name, unit, better string
	// bound is the share of the parent's median an end-to-end metric may
	// worsen by before it counts as a regression (0 for per-layer).
	bound float64
}

// endToEnd is measured with tracing off; every workload reports all of
// it. The time metrics carry the widest bound a benchmark may declare:
// on this shared two-core VM two sets of runs of the same code differ by
// up to 5% in their medians and spread by up to 12% (README, "Baseline
// and noise"), and a bound inside the noise rejects innocent changes. The
// allocation metrics repeat to four digits and carry the tight bound.
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"round_ms_p50", "ms", "lower", 0.25},
	{"msgs_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_msg", "ms", "lower", 0.25},
	{"allocs_per_msg", "count", "lower", 0.02},
	{"alloc_kb_per_msg", "KiB", "lower", 0.02},
}

// perLayer is reported by a -trace 1 run: the leg-level trace of the
// workload, then the direct timings of the layers' public functions.
// Metrics that do not apply to a workload (frontend.* without frontends)
// read 0.
var perLayer = []metric{
	{"round.ms_p90", "ms", "lower", 0},
	{"coordinator.collect_ms", "ms", "lower", 0},
	{"coordinator.fanout_ms", "ms", "lower", 0},
	{"frontend.collect_ms", "ms", "lower", 0},
	{"frontend.pipe_ms", "ms", "lower", 0},
	{"mixnet.hop0.fwd_ms", "ms", "lower", 0},
	{"mixnet.hop1.fwd_ms", "ms", "lower", 0},
	{"mixnet.last.exchange_ms", "ms", "lower", 0},
	{"mixnet.hop1.back_ms", "ms", "lower", 0},
	{"mixnet.hop0.back_ms", "ms", "lower", 0},
	{"mixnet.shard.rpc_ms", "ms", "lower", 0},
	{"dial.round_ms", "ms", "lower", 0},
	{"roundstate.commit_ms", "ms", "lower", 0},
	{"transport.leg_xfer_ms", "ms", "lower", 0},
	{"transport.wire_kb_per_msg", "KiB", "lower", 0},
	{"transport.writes_per_round", "count", "lower", 0},
	{"trace.sum_ratio", "ratio", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"model.floor_ratio", "ratio", "lower", 0},
	{"loadgen.prebuild_s", "s", "lower", 0},
	{"loadgen.client_cpu_us_per_msg", "us", "lower", 0},

	{"onion.wrap3_us", "us", "lower", 0},
	{"onion.wrap2_us", "us", "lower", 0},
	{"onion.wrap1_us", "us", "lower", 0},
	{"onion.unwrap_us", "us", "lower", 0},
	{"onion.seal_reply_us", "us", "lower", 0},
	{"onion.unwrap_reply3_us", "us", "lower", 0},
	{"onion.unwrap_allocs", "count", "lower", 0},
	{"onion.wrap3_allocs", "count", "lower", 0},
	{"box.precompute_us", "us", "lower", 0},
	{"box.seal_us", "us", "lower", 0},
	{"box.open_us", "us", "lower", 0},
	{"convo.build_request_us", "us", "lower", 0},
	{"convo.open_reply_us", "us", "lower", 0},
	{"convo.noisegen_us", "us", "lower", 0},
	{"convo.process_us", "us", "lower", 0},
	{"shuffle.new_us", "us", "lower", 0},
	{"shuffle.apply_invert_us", "us", "lower", 0},
	{"wire.encode_us", "us", "lower", 0},
	{"wire.decode_us", "us", "lower", 0},
	{"wire.decode_allocs", "count", "lower", 0},
	{"transport.secure_mb_s", "MB/s", "higher", 0},
	{"transport.handshake_ms", "ms", "lower", 0},
	{"roundstate.commit_fsync_ms", "ms", "lower", 0},
	{"dial.build_request_us", "us", "lower", 0},
	{"dial.noisegen_us", "us", "lower", 0},
	{"dial.process_us", "us", "lower", 0},
	{"dial.scan_bucket_us", "us", "lower", 0},
	{"mixnet.last_round_us_per_onion", "us", "lower", 0},
}

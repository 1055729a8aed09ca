package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"vuvuzela/internal/sim"
)

// tiny shrinks a workload to smoke-test size: the same roles and legs,
// a handful of users, rounds that take a few milliseconds.
func tiny(w workload) workload {
	w.users, w.mu, w.rounds = 8, 2, 16
	return w
}

// smokeOptions keeps a smoke run's files in the test's temp directory
// and its layer pass small.
func smokeOptions(t *testing.T) runOptions {
	return runOptions{scratch: t.TempDir(), layerBatch: 16, layerBudget: 50 * time.Millisecond}
}

// checkMetrics asserts res reports exactly the metrics of table, each
// with its declared unit and a finite value.
func checkMetrics(t *testing.T, res *result, table []metric) {
	t.Helper()
	if len(res.Metrics) != len(table) {
		t.Errorf("%s: %d metrics reported, %d declared", res.Workload, len(res.Metrics), len(table))
	}
	for _, m := range table {
		v, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not reported", res.Workload, m.name)
		case v.Unit != m.unit:
			t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, m.name, v.Unit, m.unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
			t.Errorf("%s: metric %s = %v", res.Workload, m.name, v.Value)
		}
	}
}

// TestWorkloadsComplete runs every workload, plain and traced, at smoke
// size: no operation may fail, every declared metric must come out once
// with its unit, the trace must tile the round, and nothing may be left
// running.
func TestWorkloadsComplete(t *testing.T) {
	defer sim.LeakCheck(t)()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(tiny(w), 1, 0, false, smokeOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Errorf("plain run: %d of %d operations failed (correct=%v)", res.Failed, res.Attempted, res.Correct)
			}
			if res.Cycles < minCycles {
				t.Errorf("plain run measured %d cycles, want at least %d", res.Cycles, minCycles)
			}
			checkMetrics(t, res, endToEnd)
			for _, m := range endToEnd {
				if res.Metrics[m.name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.name)
				}
			}

			res, err = runWorkload(tiny(w), 1, 0, true, smokeOptions(t))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct {
				t.Errorf("traced run: %d of %d operations failed", res.Failed, res.Attempted)
			}
			checkMetrics(t, res, perLayer)
			if r := res.Metrics["trace.sum_ratio"].Value; r < 0.95 || r > 1.05 {
				t.Errorf("trace.sum_ratio = %.3f, want 0.95–1.05: the spans do not tile the round", r)
			}
			for _, name := range []string{"mixnet.hop0.fwd_ms", "mixnet.last.exchange_ms", "transport.leg_xfer_ms", "transport.writes_per_round"} {
				if res.Metrics[name].Value == 0 {
					t.Errorf("per-layer metric %s is 0", name)
				}
			}
			// The roles only full-small has must show up in its trace, and
			// nowhere else.
			for _, name := range []string{"frontend.collect_ms", "frontend.pipe_ms", "mixnet.shard.rpc_ms", "dial.round_ms"} {
				if got := res.Metrics[name].Value > 0; got != (w.frontends > 0) {
					t.Errorf("per-layer metric %s = %v on %s", name, res.Metrics[name].Value, w.name)
				}
			}
		})
	}
}

// TestCorruptedReplyCounted flips one byte of one reply per generator
// connection per cycle and expects exactly those operations to be counted
// as failed — and the run to finish normally all the same.
func TestCorruptedReplyCounted(t *testing.T) {
	opt := smokeOptions(t)
	opt.corrupt = func(round uint64, replies [][]byte) {
		if round == warmupRounds+1 {
			replies[0][0] ^= 1
		}
	}
	res, err := runWorkload(tiny(workloads[0]), 1, 0, false, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := numGenerators() * res.Cycles; res.Failed != want || res.Correct {
		t.Errorf("%d operations failed (correct=%v), want %d", res.Failed, res.Correct, want)
	}
}

// TestSeedDeterminesInputs: the same seed pre-builds the same onions,
// byte for byte; another seed does not.
func TestSeedDeterminesInputs(t *testing.T) {
	w := tiny(workloads[3])
	build := func(seed int64) *inputs {
		in, err := buildInputs(w, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := build(7), build(7), build(8)
	for g := range a.subs {
		for r := range a.subs[g] {
			if !reflect.DeepEqual(a.subs[g][r].msg, b.subs[g][r].msg) {
				t.Fatalf("seed 7 built two different submissions for connection %d round %d", g, r+1)
			}
		}
		for d := range a.dialSubs[g] {
			if !reflect.DeepEqual(a.dialSubs[g][d], b.dialSubs[g][d]) {
				t.Fatalf("seed 7 built two different dialing submissions for connection %d round %d", g, d+1)
			}
		}
	}
	if bytes.Equal(a.subs[0][0].msg.Body[0], c.subs[0][0].msg.Body[0]) {
		t.Error("seeds 7 and 8 built the same onion")
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(xs, n=4):
// for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the tables the program
// prints from together.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var file struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []declared `json:"workloads"`
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", file.Command, file.Paths)
	}
	if file.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", file.RunSeconds, defaultSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := file.Workloads[i]; d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []declared, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			d := got[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s %d: declared %+v, program has %+v", kind, i, d, m)
			}
			if bounded != (d.Bound != nil) || (bounded && *d.Bound != m.bound) {
				t.Errorf("%s %s: bound declared %v, program has %v", kind, m.name, d.Bound, m.bound)
			}
		}
	}
	compare("end_to_end", file.EndToEnd, endToEnd, true)
	compare("per_layer", file.PerLayer, perLayer, false)
}

// Command bench is the repository's benchmark: it assembles a fully
// networked Vuvuzela deployment (entry, optional frontends, three chain
// servers, optional shards, every leg inside transport.Secure) over one
// in-memory network from the roles' public constructors, drives
// conversation rounds through it closed-loop from pre-built, seeded
// client onions, verifies every reply, and prints every metric by name
// with its unit. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory explains them.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash bench/run.sh -workload users-par -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh                # every workload, plain and traced
//	bash bench/run.sh -agree 5       # do two sets of runs agree?
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics (-trace 0) or the per-layer metrics (-trace 1).
// The exit code is non-zero only when the harness itself failed, never
// because a run was slow or an operation failed (failures are counted).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	if os.Getenv(ballastEnv) != "" {
		ballast()
		return
	}
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (default: run all)")
		seed    = flag.Int64("seed", 1, "seed every input is derived from")
		seconds = flag.Int("seconds", defaultSeconds, "seconds one run measures for")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		out     = flag.String("out", "", "also write the results to this JSON file")
		agree   = flag.Int("agree", 0, "run two interleaved sets of N runs per workload and compare them")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*name, *seed, *seconds, *trace == 1, *out, *agree); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced bool, out string, agree int) error {
	if agree > 0 {
		return runAgree(agree, seed, seconds)
	}
	if name != "" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		stop, err := startBallast()
		if err != nil {
			return err
		}
		res, err := runWorkload(w, seed, time.Duration(seconds)*time.Second, traced, runOptions{})
		stop()
		if err != nil {
			return err
		}
		printResult(os.Stdout, res)
		if err := writeJSON(out, res); err != nil {
			return err
		}
		return printDriverLine(res)
	}

	// Every workload, each run in a fresh process so heap and GC state
	// never carry over from one to the next.
	fmt.Printf("vuvuzela bench: seed %d, %d s per run, GOMAXPROCS %d, %s, commit %s\n\n",
		seed, seconds, runtime.GOMAXPROCS(0), runtime.Version(), commit())
	var all []*result
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			res, err := runChild(w.name, seed, seconds, trace)
			if err != nil {
				return err
			}
			printResult(os.Stdout, res)
			all = append(all, res)
		}
	}
	return writeJSON(out, all)
}

// runChild re-executes this binary for one workload and decodes the
// result from the last line it prints.
func runChild(name string, seed int64, seconds, trace int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	tmp := filepath.Join(scratchDir, fmt.Sprintf("result-%d.json", os.Getpid()))
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.Remove(tmp)
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", tmp)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench: %s (trace %d): %w", name, trace, err)
	}
	data, err := os.ReadFile(tmp)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("bench: decoding %s's result: %w", name, err)
	}
	return &res, nil
}

// commit names the source revision when the benchmark runs inside a git
// checkout (the driver's checkout is not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printResult writes the human table of one run: every metric of the
// run's table, in declaration order, by name with its unit.
func printResult(f *os.File, res *result) {
	kind, table := "end to end", endToEnd
	if res.Traced {
		kind, table = "per layer (traced)", perLayer
	}
	fmt.Fprintf(f, "%s — %s: seed %d, %d cycles, %d rounds sampled, ops_attempted %d, ops_failed %d\n",
		res.Workload, kind, res.Seed, res.Cycles, res.Rounds, res.Attempted, res.Failed)
	for _, m := range table {
		v := res.Metrics[m.name]
		fmt.Fprintf(f, "  %-32s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
	fmt.Fprintln(f)
}

// printDriverLine prints the one-line JSON object the benchmark driver
// reads from the end of standard output.
func printDriverLine(res *result) error {
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// writeJSON writes v to path, if one was given.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: %w", err)
	}
	return nil
}

// writeTrace writes a traced run's spans, kept in memory until now, to
// trace-<workload>.json in the scratch directory.
func writeTrace(scratch, name string, cycles []*cycle) error {
	var spans []span
	for _, cy := range cycles {
		spans = append(spans, cy.spans...)
	}
	return writeJSON(filepath.Join(scratch, "trace-"+name+".json"), spans)
}

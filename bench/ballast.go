package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// ballastEnv marks the re-executed process that only spins.
const ballastEnv = "VUVUZELA_BENCH_BALLAST"

// The sandbox's two virtual CPUs run at two speeds: about 50 µs per
// X25519 operation while a core has been kept busy, about 85 µs for a
// while after it has idled, and a closed-loop benchmark with serial
// sections idles a core all the time — measured here, the same
// single-threaded loop drifts between the two within seconds, which is
// more than any bound in BENCHMARK.json. The ballast is a child process
// with one lowest-priority spinning thread per CPU: it runs only when a
// core would otherwise idle, so it takes (almost) nothing from the
// program under test, whose CPU time is counted per process, but no core
// ever leaves its busy speed. Every run is measured with it; startBallast
// returns the function that stops it and waits for it to end.
func startBallast() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), ballastEnv+"=1")
	// The child exits when this pipe closes, which it also does if this
	// process dies first.
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: starting the ballast: %w", err)
	}
	return func() {
		stdin.Close()
		_ = cmd.Wait()
	}, nil
}

// ballastSink keeps the spin loops from being optimized away.
var ballastSink int64

// ballast is the child's whole life: spin at the lowest priority until
// standard input closes.
func ballast() {
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			// Linux priorities are per thread, so each spinner lowers
			// its own.
			runtime.LockOSThread()
			if err := syscall.Setpriority(syscall.PRIO_PROCESS, syscall.Gettid(), 19); err != nil {
				os.Exit(1)
			}
			// Reading the clock is a light loop: it keeps the core
			// awake without competing for the multipliers the crypto
			// wants.
			for {
				ballastSink += int64(time.Now().Nanosecond())
			}
		}()
	}
	_, _ = io.Copy(io.Discard, os.Stdin)
}

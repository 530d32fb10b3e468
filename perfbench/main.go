// Command perfbench is the repository's end-to-end benchmark. It runs
// the homes under test as separate processes, drives them over loopback
// TCP from this driver process with a seeded open-loop generator, checks
// every output, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics) as a table and then as one JSON line. See
// README.md in this directory.
//
//	python3 perfbench/run.py --workload home-control --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	closed   bool   // measure single-worker closed-loop capacity instead
	dir      string // this run's scratch directory
}

// runDeadline bounds a whole run: past it the driver stops its homes,
// removes its scratch data and fails, well inside the 180s a run may take.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "home" {
		os.Exit(homeMain())
	}
	os.Exit(driveMain(os.Args[1:]))
}

func driveMain(args []string) int {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Last resort if teardown itself hangs: the homes die with this
	// process (they hold a parent-death signal).
	watchdog := time.AfterFunc(runDeadline+5*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run did not stop; exiting")
		os.Exit(3)
	})
	defer watchdog.Stop()
	return drive(ctx, args)
}

// drive runs one benchmark invocation until ctx ends, returning the
// exit code. Its scratch directory goes whatever the outcome.
func drive(ctx context.Context, args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "home-control, away-control or registry-churn")
	seed := fs.Uint64("seed", 1, "seed of the generated schedule")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 for the traced run and the per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for scratch data")
	closed := fs.Bool("closed-loop", false, "send the generated ops back to back on one worker and report its capacity")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dir, err := runDir(*workdir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	if dir, err = filepath.Abs(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}

	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, closed: *closed, dir: dir}
	res, err := runBench(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value\n", k)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

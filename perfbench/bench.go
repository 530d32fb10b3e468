package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"time"
)

// workload is one traffic mix against homes in their own processes.
type workload interface {
	// setup spawns the homes and builds the driver's side, returning once
	// every path the window uses is warm.
	setup(ctx context.Context, dir string) error
	// plan generates the window's ops from rng.
	plan(rng *rand.Rand, seconds float64) []op
	workers() int
	// exec runs op o on worker w; tr is nil outside the traced window.
	exec(ctx context.Context, w int, o op, id int, due time.Time, tr *tracer) error
	// drain waits for the asynchronous effects of the window's writes and
	// returns their latency distribution and how many never arrived.
	drain(ctx context.Context) (eff dist, missing int, err error)
	// counters snapshots every counter the metrics are deltas of.
	counters(ctx context.Context) (map[string]float64, error)
	// check runs the workload's output checks after the last window.
	check(ctx context.Context) error
	// probe times layers the driver cannot wrap, after the windows.
	probe(ctx context.Context) (map[string]float64, error)
	// paths lists what each traced root is made of in published
	// per-layer metrics, for the layer budget; ops are the traced window's.
	paths(pub map[string]metric, probes map[string]float64, ops []op) map[string]path
	// extraSpans returns spans of the traced window that the driver's
	// workers did not record: effect chains and other processes' spans,
	// merged by op ID.
	extraSpans() []spanRec
	teardown()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "home-control":
		return newCallWorkload(false), nil
	case "away-control":
		return newCallWorkload(true), nil
	case "registry-churn":
		return newChurnWorkload(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (home-control, away-control, registry-churn)", name)
}

// setupReps is how many times a run builds its homes: set-up time is
// the median, and the last build is the one measured.
const setupReps = 5

// idleSeconds is how long the traced run watches the homes with no op
// sent, to tell their background work from the work the ops caused.
const idleSeconds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measured is one window's outcome.
type measured struct {
	ops      []op
	win      *window
	eff      dist
	missing  int
	before   map[string]float64
	after    map[string]float64
	tcpOpens float64
	span     time.Duration // between the two counter snapshots
	spans    []spanRec     // the traced window's driver-side spans
}

func (m *measured) delta(k string) float64 { return m.after[k] - m.before[k] }

// runBench runs one workload end to end and returns its result. The
// metric table goes to stdout; the caller prints the JSON line after it.
func runBench(ctx context.Context, cfg config) (result, error) {
	var setups []float64
	var w workload
	for rep := 0; rep < setupReps; rep++ {
		wl, err := newWorkload(cfg.workload)
		if err != nil {
			return result{}, err
		}
		dir := fmt.Sprintf("%s/setup-%d", cfg.dir, rep)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return result{}, err
		}
		t := time.Now()
		err = wl.setup(ctx, dir)
		setups = append(setups, time.Since(t).Seconds())
		if err != nil {
			wl.teardown()
			return result{}, fmt.Errorf("setup: %w", err)
		}
		if rep < setupReps-1 {
			wl.teardown()
			_ = os.RemoveAll(dir)
			continue
		}
		w = wl
	}
	defer w.teardown()

	rng := rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15))
	if cfg.closed {
		return closedLoop(ctx, w, w.plan(rng, cfg.seconds))
	}
	seconds := cfg.seconds
	if cfg.trace {
		// The traced run splits its time: an untraced half gives the
		// baseline the trace overhead is measured against.
		seconds /= 2
	}
	plain, err := measure(ctx, w, rng, seconds, false)
	if err != nil {
		return result{}, err
	}
	var traced *measured
	if cfg.trace {
		if traced, err = measure(ctx, w, rng, seconds, true); err != nil {
			return result{}, err
		}
	}
	checkErr := w.check(ctx)
	res := result{Correct: checkErr == nil, Metrics: map[string]metric{}}
	for _, m := range []*measured{plain, traced} {
		if m == nil {
			continue
		}
		res.Attempted += len(m.ops)
		res.Failed += m.win.failures() + m.missing
		for _, e := range m.win.errs {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", e)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", checkErr)
	}

	if !cfg.trace {
		endToEnd(res.Metrics, plain, median(setups))
		printTable(cfg.workload+" end to end", res.Metrics)
		return res, nil
	}
	bg, err := background(ctx, w)
	if err != nil {
		return result{}, err
	}
	probes, err := w.probe(ctx)
	if err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}
	bs := budgets(mergeSpans(traced.spans, w.extraSpans()))
	perLayer(res.Metrics, plain, traced, bs, probes, bg)
	printTable(cfg.workload+" per layer", res.Metrics)
	budgetErr := budget(res.Metrics, bs, w.paths(res.Metrics, probes, traced.ops))
	if budgetErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: layer budget: %v\n", budgetErr)
		res.Correct = false
	}
	return res, nil
}

// background returns the rate per second at which each counter moves
// while no op is sent: the homes' own work.
func background(ctx context.Context, w workload) (map[string]float64, error) {
	before, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(idleSeconds * time.Second):
	}
	after, err := w.counters(ctx)
	if err != nil {
		return nil, err
	}
	d := time.Since(t0).Seconds()
	rates := map[string]float64{}
	for k, v := range after {
		rates[k] = (v - before[k]) / d
	}
	return rates, nil
}

// closedLoop sends ops one after another on a single worker, each as
// soon as the last completes, and reports ops completed per second: the
// capacity the workloads' open-loop rates are set against. The ops are
// the ones the open loop would send in as many seconds, so the mix is the
// same and every output check still applies.
func closedLoop(ctx context.Context, w workload, ops []op) (result, error) {
	failed := 0
	start := time.Now()
	for i, o := range ops {
		if err := w.exec(ctx, 0, o, i, time.Now(), nil); err != nil {
			if failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
			}
			failed++
		}
	}
	elapsed := time.Since(start).Seconds()
	_, missing, err := w.drain(ctx)
	if err != nil {
		return result{}, err
	}
	checkErr := w.check(ctx)
	if checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", checkErr)
	}
	res := result{Correct: checkErr == nil && failed+missing == 0, Attempted: len(ops), Failed: failed + missing,
		Metrics: map[string]metric{"closed_loop_ops_per_s": {float64(len(ops)-failed) / elapsed, "op/s"}}}
	printTable("closed loop, one worker", res.Metrics)
	return res, nil
}

// measure runs one window of the workload's ops.
func measure(ctx context.Context, w workload, rng *rand.Rand, seconds float64, traced bool) (*measured, error) {
	m := &measured{ops: w.plan(rng, seconds)}
	var err error
	if m.before, err = w.counters(ctx); err != nil {
		return nil, err
	}
	t0 := time.Now()
	opens := tcpActiveOpens()
	tracers := make([]*tracer, w.workers())
	if traced {
		for i := range tracers {
			tracers[i] = &tracer{}
		}
	}
	m.win = runOpen(ctx, m.ops, w.workers(), precisePace(), func(wk, i int, due time.Time) error {
		return w.exec(ctx, wk, m.ops[i], i, due, tracers[wk])
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.tcpOpens = float64(tcpActiveOpens() - opens)
	m.span = time.Since(t0)
	if m.after, err = w.counters(ctx); err != nil {
		return nil, err
	}
	if m.eff, m.missing, err = w.drain(ctx); err != nil {
		return nil, err
	}
	for _, t := range tracers {
		if t != nil {
			m.spans = mergeSpans(m.spans, t.spans)
		}
	}
	return m, nil
}

// mergeSpans appends b to a, rebasing b's parent indices.
func mergeSpans(a, b []spanRec) []spanRec {
	base := len(a)
	for _, s := range b {
		if s.Parent >= 0 {
			s.Parent += base
		}
		a = append(a, s)
	}
	return a
}

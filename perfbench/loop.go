package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"sync"
	"syscall"
	"time"
)

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opAdd
	opDelete
	opLookup
)

// isWrite reports whether the op changes state at the home.
func (k opKind) isWrite() bool { return k == opWrite || k == opAdd || k == opDelete }

// op is one generated operation. The generator fills every field from
// the seed; a home receives only the request exec builds from it.
type op struct {
	Due    time.Duration // offset from the window start
	Kind   opKind
	Target int   // workload-specific: device or service index
	Val    int64 // value written, or the generation of an update
	Worker int   // the one worker that owns Target
}

// arrivals returns Poisson arrival offsets at rate per second for
// seconds: independent users acting on their own schedule.
func arrivals(rng *rand.Rand, rate, seconds float64) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= seconds {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// window is what one open-loop run measured, indexed by op.
type window struct {
	lat     []float64 // µs from the op's scheduled send to its completion
	lag     []float64 // µs the generator handed the op over late
	queue   []float64 // µs the op waited for its worker after hand-over
	failed  []bool
	errs    []error // the first few failures, for the report
	start   time.Time
	elapsed time.Duration // window start to the last completion
}

// runOpen sends ops on their schedule regardless of completions (an
// open loop), each to its owning worker, and times every op from when
// it was due. A stall anywhere — generator, worker or home — therefore
// shows in the latency of every op due during it. pace blocks until its
// argument; exec runs op i, due at due, on worker w. Once ctx ends no
// further op is sent.
func runOpen(ctx context.Context, ops []op, workers int, pace func(time.Time), exec func(w, i int, due time.Time) error) *window {
	n := len(ops)
	win := &window{
		lat: make([]float64, n), lag: make([]float64, n), queue: make([]float64, n),
		failed: make([]bool, n),
	}
	chans := make([]chan int, workers)
	for w := range chans {
		// Sized to hold every op, so a slow worker never blocks the
		// generator: lateness then shows as queueing, not as lag.
		chans[w] = make(chan int, n)
	}
	sent := make([]time.Time, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	win.start = time.Now().Add(2 * time.Millisecond)
	var last time.Time
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var done time.Time
			for i := range chans[w] {
				due := win.start.Add(ops[i].Due)
				win.queue[i] = us(time.Since(sent[i]))
				err := exec(w, i, due)
				done = time.Now()
				win.lat[i] = us(done.Sub(due))
				if err != nil {
					win.lat[i] = failedUS
					win.failed[i] = true
					mu.Lock()
					if len(win.errs) < 5 {
						win.errs = append(win.errs, err)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			if done.After(last) {
				last = done
			}
			mu.Unlock()
		}(w)
	}
	go func() {
		for i := range ops {
			if ctx.Err() != nil {
				break // the run is being abandoned; send nothing more
			}
			due := win.start.Add(ops[i].Due)
			pace(due)
			sent[i] = time.Now()
			win.lag[i] = us(sent[i].Sub(due))
			chans[ops[i].Worker] <- i
			// The worker was just made runnable on this goroutine's
			// processor; run it now, before the pacer parks this
			// processor in a sleep where the worker would wait for the
			// runtime to take the processor back.
			runtime.Gosched()
		}
		for _, c := range chans {
			close(c)
		}
	}()
	wg.Wait()
	win.elapsed = last.Sub(win.start)
	return win
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// failures counts failed ops.
func (w *window) failures() int {
	n := 0
	for _, f := range w.failed {
		if f {
			n++
		}
	}
	return n
}

// precisePace returns the production pacer. Go's timers overshoot a
// sub-millisecond sleep by about a millisecond on Linux, which would
// swamp call latencies of tens of microseconds. The pacer instead
// sleeps in nanosleep with the kernel's timer slack cut to 1µs on the
// thread it runs on, overshooting by a few microseconds.
func precisePace() func(time.Time) {
	return func(due time.Time) {
		const prSetTimerSlack = 29
		_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1000, 0)
		// A signal (the runtime's preemption) can cut a sleep short:
		// sleep again for whatever remains.
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil)
		}
	}
}

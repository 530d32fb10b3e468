package main

import (
	"context"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// driver spawns homes by re-executing itself with "home", and the
// orphan test runs a whole driver in a child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "home" {
		os.Exit(homeMain())
	}
	if os.Getenv("PERFBENCH_TEST_DRIVER") == "1" {
		os.Exit(driveMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 0.99}, {1000, 0.99}, {500, 0.98}, {50, 0.8}, {5, 0}} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentilesCountFailuresAsMissing(t *testing.T) {
	var d dist
	for i := 0; i < 980; i++ {
		d.add(100)
	}
	for i := 0; i < 20; i++ {
		d.fail()
	}
	p50, p99 := d.pct(0.99)
	if p50 != 100 {
		t.Errorf("p50 = %v, want 100", p50)
	}
	if p99 != failedUS {
		t.Errorf("p99 = %v: 2%% failures must put p99 past every limit", p99)
	}
	var ok dist
	for i := 1; i <= 1000; i++ {
		ok.add(float64(i))
	}
	if _, p99 := ok.pct(0.99); p99 != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", p99)
	}
}

// An injected 5ms generator stall must show in the latency of the ops
// due during it and in the lag tail.
func TestOpenLoopStallShows(t *testing.T) {
	const n, rate = 2000, 20000.0 // 100ms of ops, 100 of them due in the stall
	ops := make([]op, n)
	for i := range ops {
		ops[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	const stallAt, stall = 500, 5 * time.Millisecond
	pace, calls := precisePace(), 0
	win := runOpen(context.Background(), ops, 1, func(due time.Time) {
		pace(due)
		if calls == stallAt {
			time.Sleep(stall)
		}
		calls++
	}, func(int, int, time.Time) error { return nil })

	stallDue := ops[stallAt].Due
	late := 0
	for i, o := range ops {
		if o.Due >= stallDue && o.Due < stallDue+stall-time.Millisecond {
			late++
			if want := us(stallDue + stall - o.Due); win.lat[i] < want*0.9 {
				t.Errorf("op %d due in the stall: latency %.0fµs, want ≥ %.0fµs", i, win.lat[i], want)
			}
		}
	}
	if late < 50 {
		t.Fatalf("only %d ops due in the stall", late)
	}
	lag := dist{xs: win.lag}
	if _, p99 := lag.pct(0.99); p99 < 1000 {
		t.Errorf("lag p99 = %.0fµs, want the stall to show (≥ 1000µs)", p99)
	}
}

func TestSelfTimesNested(t *testing.T) {
	spans := []spanRec{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "a.inner", Start: 20, End: 30, Parent: 1},
		{Name: "b", Start: 35, End: 60, Parent: 0},  // overlaps a
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent
	}
	want := []int64{
		100 - (60 - 10) - (100 - 90), // the root minus the union of its children
		30 - 10,
		10,
		25,
		30,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// Budgets are in µs; these spans are in ns.
	b := budgets(spans)["op"]
	for name, ns := range map[string]float64{"a": 20, "a.inner": 10, "b": 25, "c": 30} {
		if got := b.layer(name); len(got) != 1 || math.Abs(got[0]*1e3-ns) > 1e-9 {
			t.Errorf("budget %s = %vµs, want %vns", name, got, ns)
		}
	}
	if math.Abs(b.self[0]*1e3-40) > 1e-9 {
		t.Errorf("root self = %vµs, want 40ns", b.self[0])
	}
}

// The layer budget adds up the published figures, taking the serving
// home's probed costs out of the exchange that contains them: it passes
// when they add up to the traced median and fails when one layer is
// over-reported, on either side of the wire, or one is left out.
func TestBudgetCatchesOverReportedLayer(t *testing.T) {
	pub := func(resolve, pcm float64) map[string]metric {
		return map[string]metric{
			"vsg.resolve_us":        {resolve, "us"},
			"soap.encode_us":        {10, "us"}, // 4 client-side, 6 serving
			"transport.exchange_us": {200, "us"}, "pcm.x10_invoke_us": {pcm, "us"},
			"unattributed_us": {5, "us"},
		}
	}
	p := func(pcm float64) path {
		return path{terms: []pathTerm{{"vsg.resolve_us", 1}, {"soap.encode_us", 1},
			{"transport.exchange_us", 1}, {"pcm.x10_invoke_us", 0.5}, {"unattributed_us", 1}},
			inside: 6 + 0.5*pcm}
	}
	// 5 + 10 + 200 + 0.5·40 + 5 − (6 + 20) = 214.
	if sum, err := reconcile(pub(5, 40), p(40), 214); err != nil || math.Abs(sum-214) > 1e-9 {
		t.Fatalf("reconcile = %v, %v; want 214, nil", sum, err)
	}
	if _, err := reconcile(pub(5+0.2*214, 40), p(40), 214); err == nil {
		t.Error("a driver-side layer over-reported by 20% of the median passed")
	}
	// Over-reporting a serving-side cost moves it out of the wire share,
	// so the sum holds; it fails once it outgrows the exchange itself.
	if _, err := reconcile(pub(5, 420), p(420), 214); err == nil {
		t.Error("a serving-side cost larger than its exchange passed")
	}
	noWire := p(40)
	noWire.terms = slices.DeleteFunc(noWire.terms, func(t pathTerm) bool { return t.metric == "transport.exchange_us" })
	if _, err := reconcile(pub(5, 40), noWire, 214); err == nil {
		t.Error("a path without its exchange passed")
	}
	if _, err := reconcile(pub(5, 40), path{terms: []pathTerm{{"vsr.entry_us", 1}}}, 214); err == nil {
		t.Error("a path through an unpublished metric passed")
	}
}

// childPIDs lists live processes whose parent is pid.
func childPIDs(pid int) []int {
	var out []int
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		p, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesised command: state, ppid, ...
		f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
		if len(f) > 1 && f[0] != "Z" && f[1] == strconv.Itoa(pid) {
			out = append(out, p)
		}
	}
	return out
}

func runDirs(t *testing.T, workdir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(workdir, "tmp"))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// A run that times out mid-window leaves no home running and no data
// directory behind.
func TestTimeoutLeavesNothing(t *testing.T) {
	workdir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	code := drive(ctx, []string{"--workload", "registry-churn", "--seconds", "30", "--workdir", workdir})
	if code == 0 {
		t.Fatal("a run cut short by its deadline reported success")
	}
	if pids := childPIDs(os.Getpid()); len(pids) > 0 {
		t.Errorf("homes still running after the driver failed: %v", pids)
	}
	if dirs := runDirs(t, workdir); len(dirs) > 0 {
		t.Errorf("scratch left behind: %v", dirs)
	}
}

// A driver killed outright takes its homes with it, and the next run
// removes the scratch directory it could not.
func TestKilledDriverLeavesNoHomes(t *testing.T) {
	workdir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "--workload", "registry-churn", "--seconds", "30", "--workdir", workdir)
	cmd.Env = append(os.Environ(), "PERFBENCH_TEST_DRIVER=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var homes []int
	deadline := time.Now().Add(30 * time.Second)
	for len(homes) == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		homes = childPIDs(cmd.Process.Pid)
	}
	if len(homes) == 0 {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("driver never started a home")
	}
	t.Logf("driver %d started homes %v", cmd.Process.Pid, homes)
	_ = cmd.Process.Signal(syscall.SIGKILL)
	_ = cmd.Wait()
	for _, pid := range homes {
		gone := false
		for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
			if err := syscall.Kill(pid, 0); err == syscall.ESRCH || zombie(pid) {
				gone = true
				break
			}
		}
		if !gone {
			_ = syscall.Kill(pid, syscall.SIGKILL)
			t.Errorf("home %d outlived its killed driver", pid)
		}
	}
	if _, err := runDir(workdir); err != nil {
		t.Fatal(err)
	}
	for _, d := range runDirs(t, workdir) {
		if d != "run-"+strconv.Itoa(os.Getpid()) {
			t.Errorf("stale scratch %s not removed", d)
		}
	}
}

func zombie(pid int) bool {
	stat, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return true
	}
	f := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
	return len(f) > 0 && f[0] == "Z"
}

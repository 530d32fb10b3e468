package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStats is one process's own counters since it started.
type procStats struct {
	CPUNS    int64  `json:"cpu_ns"`
	MaxRSSKB int64  `json:"maxrss_kb"`
	Alloc    uint64 `json:"alloc_bytes"`
	GC       uint32 `json:"gc"`
}

func selfStats() procStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		CPUNS:    ru.Utime.Nano() + ru.Stime.Nano(),
		MaxRSSKB: ru.Maxrss,
		Alloc:    ms.TotalAlloc,
		GC:       ms.NumGC,
	}
}

// child is one home process under test, driven over its stdin/stdout
// with one JSON line per request and per reply. The home exits when its
// stdin closes, and the kernel kills it if the driver dies first, so no
// home outlives the run.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	done chan struct{}
}

// spawn starts a home process with cfg and waits for its ready line.
func spawn(ctx context.Context, cfg homeConfig, ready *homeReady) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "home")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn home: %w", err)
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<20), done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	if err := c.call(ctx, cfg, ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("home start: %w", err)
	}
	if ready.PID != cmd.Process.Pid {
		c.kill()
		return nil, fmt.Errorf("home reports pid %d, spawned %d", ready.PID, cmd.Process.Pid)
	}
	return c, nil
}

// call sends one request line and decodes the reply line.
func (c *child) call(ctx context.Context, req, reply any) error {
	line, err := json.Marshal(req)
	if err != nil {
		return err
	}
	type result struct {
		data []byte
		err  error
	}
	got := make(chan result, 1)
	go func() {
		if _, err := c.in.Write(append(line, '\n')); err != nil {
			got <- result{err: err}
			return
		}
		data, err := c.out.ReadBytes('\n')
		got <- result{data, err}
	}()
	select {
	case r := <-got:
		if r.err != nil {
			return fmt.Errorf("home: %w", r.err)
		}
		var env struct {
			Err string `json:"error"`
		}
		if json.Unmarshal(r.data, &env) == nil && env.Err != "" {
			return fmt.Errorf("home: %s", env.Err)
		}
		return json.Unmarshal(r.data, reply)
	case <-ctx.Done():
		c.kill()
		return ctx.Err()
	case <-c.done:
		return fmt.Errorf("home exited")
	}
}

// quit asks the home to write out its spans and stop, killing it if it
// has not exited within a few seconds.
func (c *child) quit() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ok struct{}
	_ = c.call(ctx, homeCmd{Cmd: "quit"}, &ok)
	_ = c.in.Close()
	select {
	case <-c.done:
	case <-ctx.Done():
		c.kill()
	}
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// runDir makes this run's scratch directory under workdir. Directories
// left by runs whose driver has died (a SIGKILL leaves no chance to
// clean up) are removed first.
func runDir(workdir string) (string, error) {
	base := filepath.Join(workdir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	entries, _ := os.ReadDir(base)
	for _, e := range entries {
		pid, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "run-"))
		if err != nil || syscall.Kill(pid, 0) == syscall.ESRCH {
			_ = os.RemoveAll(filepath.Join(base, e.Name()))
		}
	}
	dir := filepath.Join(base, "run-"+strconv.Itoa(os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// tcpActiveOpens reads the network namespace's count of TCP connections
// opened so far (every process of the benchmark shares the namespace).
func tcpActiveOpens() int64 {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return -1
	}
	lines := strings.Split(string(data), "\n")
	for i := 0; i+1 < len(lines); i++ {
		if !strings.HasPrefix(lines[i], "Tcp:") || !strings.HasPrefix(lines[i+1], "Tcp:") {
			continue
		}
		keys, vals := strings.Fields(lines[i]), strings.Fields(lines[i+1])
		for k := range keys {
			if keys[k] == "ActiveOpens" && k < len(vals) {
				n, _ := strconv.ParseInt(vals[k], 10, 64)
				return n
			}
		}
	}
	return -1
}

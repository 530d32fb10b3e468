package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"homeconnect/internal/core"
	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/jini"
	"homeconnect/internal/service"
	"homeconnect/internal/sim"
	"homeconnect/internal/uddi"
	"homeconnect/internal/upnp"
)

// homeConfig is the first line the driver sends a home process.
type homeConfig struct {
	// Name is the home's federation name; empty runs the paper's
	// single, open-mode home.
	Name     string            `json:"name,omitempty"`
	Identity string            `json:"identity,omitempty"` // identity file
	Trust    map[string]string `json:"trust,omitempty"`
	Audit    bool              `json:"audit,omitempty"`
	DataDir  string            `json:"data_dir,omitempty"`
	// WatchPrefix, when set, runs a home-local watch that timestamps
	// every journal change of an ID with this prefix and counts the
	// others; the timestamps are written to SpansOut at exit.
	WatchPrefix string `json:"watch_prefix,omitempty"`
	SpansOut    string `json:"spans_out,omitempty"`
	// Bare builds the home's federation and its five network gateways
	// without the devices and PCMs behind them.
	Bare bool `json:"bare,omitempty"`
}

// homeReady is the home's reply once built and serving.
type homeReady struct {
	PID      int               `json:"pid"`
	VSR      string            `json:"vsr"`
	Peer     string            `json:"peer"`
	Gateways map[string]string `json:"gateways"` // network → base URL
}

// homeCmd is every later request.
type homeCmd struct {
	Cmd string `json:"cmd"`
	N   int    `json:"n,omitempty"`
}

// homeStats is the reply to "stats": the home's own counters.
type homeStats struct {
	Proc          procStats `json:"proc"`
	Seq           uint64    `json:"seq"`
	Finds         int64     `json:"finds"`
	Appends       uint64    `json:"wal_appends"`
	Fsyncs        uint64    `json:"fsyncs"`
	Snapshots     uint64    `json:"snapshots"`
	WALBytes      int64     `json:"wal_bytes"` // with a local watch only
	AuditSeq      uint64    `json:"audit_seq"`
	Invalidations uint64    `json:"cache_invalidations"`
	// Watched and Foreign count journal changes the local watch saw for
	// IDs with and without the watch prefix; Overrun reports a watch
	// that fell off the journal and so miscounted.
	Watched uint64 `json:"watched"`
	Foreign uint64 `json:"foreign"`
	Overrun bool   `json:"overrun"`
}

// watchMark is one journal change seen by the home-local watch.
type watchMark struct {
	ID string `json:"id"`
	T  int64  `json:"t"`
}

// homeMain is the home process: it builds the paper's simulated home
// (sim.NewHome with every middleware) as cfg asks, then serves the
// driver's requests until told to quit or until its stdin closes.
func homeMain() int {
	in := bufio.NewReader(os.Stdin)
	out := json.NewEncoder(os.Stdout)
	fail := func(err error) int {
		_ = out.Encode(map[string]string{"error": err.Error()})
		return 1
	}
	line, err := in.ReadBytes('\n')
	if err != nil {
		return 1
	}
	var cfg homeConfig
	if err := json.Unmarshal(line, &cfg); err != nil {
		return fail(err)
	}
	fed, h, err := buildHome(cfg)
	if err != nil {
		return fail(err)
	}
	if h != nil {
		defer h.Close()
	} else {
		defer fed.Close()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &localWatch{prefix: cfg.WatchPrefix}
	var wg sync.WaitGroup
	if cfg.WatchPrefix != "" {
		reg := fed.VSRServer().Registry()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(ctx, reg)
		}()
	}
	stop := func() {
		cancel()
		wg.Wait()
	}
	defer stop()

	ready := homeReady{PID: os.Getpid(), VSR: fed.VSRURL(), Peer: fed.PeerURL(), Gateways: map[string]string{}}
	for _, n := range fed.Networks() {
		ready.Gateways[n] = fed.Network(n).Gateway().BaseURL()
	}
	if err := out.Encode(ready); err != nil {
		return 1
	}
	for {
		line, err := in.ReadBytes('\n')
		if err != nil {
			return 0 // the driver is gone
		}
		var c homeCmd
		if err := json.Unmarshal(line, &c); err != nil {
			return fail(err)
		}
		switch c.Cmd {
		case "stats":
			err = out.Encode(statsOf(fed, w))
		case "ids":
			var ids []string
			for _, e := range fed.VSRServer().Registry().Find(uddi.Query{}) {
				ids = append(ids, e.Name)
			}
			err = out.Encode(ids)
		case "probe":
			res := map[string]float64{}
			if h != nil {
				res, err = probeHome(ctx, h, c.N)
			}
			if err == nil {
				err = out.Encode(res)
			}
		case "quit":
			stop()
			if cfg.SpansOut != "" {
				err = writeJSON(cfg.SpansOut, w.marks)
			}
			if err == nil {
				err = out.Encode(struct{}{})
			}
			if err != nil {
				return fail(err)
			}
			return 0
		default:
			err = fmt.Errorf("unknown command %q", c.Cmd)
		}
		if err != nil {
			return fail(err)
		}
	}
}

// buildHome builds the paper's simulated home with every middleware,
// or only its federation and gateways when cfg.Bare is set (h is nil).
func buildHome(cfg homeConfig) (fed *core.Federation, h *sim.Home, err error) {
	var id *identity.Identity
	if cfg.Identity != "" {
		if id, err = identity.Load(cfg.Identity); err != nil {
			return nil, nil, err
		}
	}
	if cfg.Bare {
		spec := sim.HomeSpec{Name: cfg.Name, Identity: id, Trusted: cfg.Trust, Audit: cfg.Audit, DataDir: cfg.DataDir}
		if fed, err = spec.Build(); err != nil {
			return nil, nil, err
		}
		for _, n := range []string{"jini-net", "x10-net", "havi-net", "mail-net", "upnp-net"} {
			if _, err := fed.AddNetwork(n); err != nil {
				fed.Close()
				return nil, nil, err
			}
		}
		return fed, nil, nil
	}
	simCfg := sim.All()
	simCfg.Home, simCfg.Identity, simCfg.Trusted = cfg.Name, id, cfg.Trust
	simCfg.Audit, simCfg.DataDir = cfg.Audit, cfg.DataDir
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if h, err = sim.NewHome(ctx, simCfg); err != nil {
		return nil, nil, err
	}
	if err := h.WaitForServices(ctx, len(homeServices)); err != nil {
		h.Close()
		return nil, nil, err
	}
	return h.Fed, h, nil
}

// homeServices are the services the workloads call, all of which must
// be registered before a home reports ready.
var homeServices = []string{"x10:lamp-1", "havi:vcr-vcr1", "havi:tv-tuner", "jini:laserdisc-1", "upnp:porch-SwitchPower"}

func statsOf(fed *core.Federation, w *localWatch) homeStats {
	reg := fed.VSRServer().Registry()
	_, finds := reg.Stats()
	d := reg.Durability()
	st := homeStats{
		Proc: selfStats(), Seq: reg.Seq(), Finds: finds,
		Appends: d.Appends, Fsyncs: d.Fsyncs, Snapshots: d.Snapshots,
		AuditSeq: fed.Audit().Stats().Seq,
	}
	for _, hl := range fed.Health() {
		st.Invalidations += hl.CacheInvalidations
	}
	w.mu.Lock()
	st.Watched, st.Foreign, st.Overrun, st.WALBytes = w.watched, w.foreign, w.overrun, w.walBytes
	w.mu.Unlock()
	return st
}

// localWatch follows the home's own registry journal in-process — the
// position of a gateway's watch, without the wire.
type localWatch struct {
	prefix string

	mu      sync.Mutex
	marks   []watchMark
	watched uint64
	foreign uint64
	overrun bool
	// walBytes accumulates the WAL's growth across segments, sampled at
	// each wake; the registry reports only the active segment's size.
	walBytes int64
	lastWAL  int64
}

func (w *localWatch) run(ctx context.Context, reg *uddi.Server) {
	since := reg.Seq()
	w.mu.Lock()
	w.lastWAL = reg.Durability().WALBytes
	w.mu.Unlock()
	for ctx.Err() == nil {
		changes, next, resync, err := reg.WatchChanges(ctx, since, time.Second)
		if err != nil {
			return
		}
		t := nowNS()
		wal := reg.Durability().WALBytes
		w.mu.Lock()
		if wal < w.lastWAL {
			w.lastWAL = 0 // a snapshot started a new segment
		}
		w.walBytes += wal - w.lastWAL
		w.lastWAL = wal
		w.overrun = w.overrun || resync
		for _, c := range changes {
			if strings.HasPrefix(c.Entry.Name, w.prefix) {
				w.watched++
				w.marks = append(w.marks, watchMark{ID: c.Entry.Name, T: t})
			} else {
				w.foreign++
			}
		}
		w.mu.Unlock()
		since = next
	}
}

// probeHome times each PCM and native middleware on the workloads' own
// inputs, inside the home: a gateway calling its own network's service
// goes through the PCM to the native device with no wire between.
func probeHome(ctx context.Context, h *sim.Home, n int) (map[string]float64, error) {
	res := map[string]float64{}
	gwCall := func(network, id string, ops [2]string, arg func(i int) []service.Value) func(i int) error {
		gw := h.Fed.Network(network).Gateway()
		return func(i int) error {
			if i%2 == 0 {
				_, err := gw.Call(ctx, id, ops[0], nil)
				return err
			}
			_, err := gw.Call(ctx, id, ops[1], arg(i))
			return err
		}
	}
	intArg := func(base int64) func(int) []service.Value {
		return func(i int) []service.Value { return []service.Value{service.IntValue(base + int64(i%50))} }
	}
	probes := map[string]func(i int) error{
		"pcm.x10_invoke_us":  gwCall("x10-net", "x10:lamp-1", [2]string{"Level", "SetLevel"}, intArg(1)),
		"pcm.havi_invoke_us": gwCall("havi-net", "havi:tv-tuner", [2]string{"Channel", "SetChannel"}, intArg(2)),
		"pcm.jini_invoke_us": gwCall("jini-net", "jini:laserdisc-1", [2]string{"Chapter", "SetChapter"}, intArg(1)),
		"pcm.upnp_invoke_us": gwCall("upnp-net", "upnp:porch-SwitchPower", [2]string{"GetStatus", "SetTarget"},
			func(i int) []service.Value { return []service.Value{service.BoolValue(i%4 == 1)} }),
	}

	reg, err := jini.Discover(ctx, h.Lookup.Addr())
	if err != nil {
		return nil, err
	}
	items, err := reg.Lookup(ctx, jini.ServiceTemplate{IfaceName: "Laserdisc"})
	if err != nil || len(items) != 1 {
		return nil, fmt.Errorf("probe: jini lookup: %d items, %v", len(items), err)
	}
	probes["jini.call_us"] = func(int) error {
		_, err := jini.Call(ctx, items[0].Proxy, "State", nil)
		return err
	}

	cp := &upnp.ControlPoint{}
	_, svcs, err := cp.Describe(ctx, h.Light.Location())
	if err != nil || len(svcs) == 0 {
		return nil, fmt.Errorf("probe: upnp describe: %v", err)
	}
	probes["upnp.control_us"] = func(int) error {
		_, err := cp.Invoke(ctx, svcs[0], "GetStatus", nil)
		return err
	}

	// A fresh log, so the probe's records stay out of the home's own.
	log, err := audit.New(audit.Options{})
	if err != nil {
		return nil, err
	}
	defer log.Close()
	ev := audit.Event{Type: audit.CallAdmit, Face: "vsg:havi-net", Home: "home-1", Caller: "home-2",
		Service: "havi:vcr-vcr1", Op: "State", Detail: "wire"}
	probes["audit.append_us"] = func(int) error { log.Record(ev); return nil }

	for name, fn := range probes {
		xs, err := timeN(n, fn)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		res[name] = median(xs)
	}
	return res, nil
}

// timeN runs fn n times and returns each run's wall time in µs.
func timeN(n int, fn func(i int) error) ([]float64, error) {
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		xs[i] = us(time.Since(t))
	}
	return xs, nil
}

func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

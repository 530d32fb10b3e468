package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"homeconnect/internal/core"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// registry-churn's shape: about a thousand service IDs, of which a
// stable subset is only ever looked up while the rest churn.
const (
	churnRate   = 1200.0 // ops/s: about a quarter of one worker's closed-loop capacity
	churnIDs    = 1000
	churnLive   = 800 // churned IDs registered at the start
	stableIDs   = 200
	benchPrefix = "bench:"
	// registrationTTL outlives any run, so no entry expires mid-window.
	registrationTTL = time.Hour
)

func churnID(i int) string  { return fmt.Sprintf("%ssvc-%04d", benchPrefix, i) }
func stableID(i int) string { return fmt.Sprintf("%sstable-%03d", benchPrefix, i) }

func endpointFor(id string, gen int64) string {
	return fmt.Sprintf("http://127.0.0.1:9/bench/%s/g%d", id, gen)
}

var benchIface = service.Interface{Name: "BenchService",
	Operations: []service.Operation{{Name: "Ping", Output: service.KindVoid}}}

func benchDesc(id string) service.Description {
	return service.Description{ID: id, Name: id, Middleware: "bench", Interface: benchIface}
}

// writeRec is one registry write on its way through the federation.
type writeRec struct {
	id       string
	ap       string // the new endpoint; "" for a delete
	op       int    // op ID in the traced window, -1 elsewhere
	due      int64  // ns, scheduled send
	start    int64  // ns, when the worker took the write up
	sent     int64  // ns, just before the request left the driver
	h2       int64  // ns, when the scoped delta reached home-2's watch
	received bool
}

// churnWorkload is registry-churn. home-1 runs with a durable repository
// and its gateways watching it. The driver is home-2, importing home-1
// over the binary peer link, and also home-1's registrar, writing with
// home-1's identity as one of its gateways would.
type churnWorkload struct {
	home      *child
	ready     homeReady
	fed       *core.Federation
	ids       [2]*identity.Identity
	dialer    *transport.Dialer
	reg       *vsr.VSR
	uc        *uddi.Client
	marksPath string
	stopWatch func()

	live, absent []int // churned IDs by state, as generated
	gen          int64

	mu      sync.Mutex
	hist    map[string][]*writeRec // every write per ID, in send order
	pending map[string][]*writeRec // writes not yet seen at home-2
	traced  []*writeRec
	eff     dist
	lost    int
	resync  bool
	sent    int // writes sent since base was taken
	base    map[string]float64
}

func newChurnWorkload() *churnWorkload {
	w := &churnWorkload{hist: map[string][]*writeRec{}, pending: map[string][]*writeRec{}}
	for i := 0; i < churnIDs; i++ {
		if i < churnLive {
			w.live = append(w.live, i)
		} else {
			w.absent = append(w.absent, i)
		}
	}
	return w
}

func (w *churnWorkload) workers() int { return 1 }

func (w *churnWorkload) setup(ctx context.Context, dir string) error {
	for i, name := range []string{"home-1", "home-2"} {
		id, err := identity.Generate(name)
		if err != nil {
			return err
		}
		w.ids[i] = id
	}
	idPath := filepath.Join(dir, "home-1.id")
	if err := w.ids[0].Save(idPath); err != nil {
		return err
	}
	w.marksPath = filepath.Join(dir, "home-1-marks.json")
	// home-1's gateways run without the PCMs and devices behind them.
	// Each PCM's importer re-lists the whole registry every 200ms; with a
	// thousand services that fixed cost took over half of home-1's CPU
	// whatever the write rate, and swamped the registry path this
	// workload exists to measure.
	var err error
	w.home, err = spawn(ctx, homeConfig{Name: "home-1", Identity: idPath,
		Trust: map[string]string{"home-2": w.ids[1].PublicKey()}, DataDir: filepath.Join(dir, "home-1"),
		WatchPrefix: benchPrefix, SpansOut: w.marksPath, Bare: true}, &w.ready)
	if err != nil {
		return err
	}

	if w.fed, err = core.NewHomeFederation("home-2"); err != nil {
		return err
	}
	if err := w.fed.SetIdentity(w.ids[1]); err != nil {
		return err
	}
	if err := w.fed.TrustHome("home-1", w.ids[0].PublicKey()); err != nil {
		return err
	}
	p, err := w.fed.Peering()
	if err != nil {
		return err
	}
	// Anti-entropy re-imports the whole working set every TTL/3; with
	// the default TTL that is one burst of a thousand saves per ~10s,
	// landing in a window or not by chance. It is not per-write work, so
	// the run keeps it out of its windows.
	p.SetImportTTL(registrationTTL)
	w.startWatch(ctx)
	if err := w.fed.Peer(w.ready.Peer); err != nil {
		return err
	}

	auth := identity.NewAuth("home-1")
	if err := auth.SetIdentity(w.ids[0]); err != nil {
		return err
	}
	w.dialer = transport.NewDialer(auth)
	w.reg = vsr.New(w.ready.VSR)
	w.reg.SetDialer(w.dialer)
	w.reg.SetTTL(registrationTTL)
	w.uc = &uddi.Client{URL: w.ready.VSR, Dialer: w.dialer}

	// The working set, in batches as a gateway registers its exports.
	var regs []vsr.Registration
	for i := 0; i < stableIDs; i++ {
		regs = append(regs, vsr.Registration{Desc: benchDesc(stableID(i)), Endpoint: endpointFor(stableID(i), 0)})
	}
	for _, i := range w.live {
		regs = append(regs, vsr.Registration{Desc: benchDesc(churnID(i)), Endpoint: endpointFor(churnID(i), 0)})
	}
	for len(regs) > 0 {
		n := min(100, len(regs))
		for _, r := range regs[:n] {
			now := nowNS()
			w.expect(&writeRec{id: r.Desc.ID, ap: r.Endpoint, op: -1, due: now, sent: now})
		}
		if _, err := w.reg.RegisterAll(ctx, regs[:n]); err != nil {
			return err
		}
		regs = regs[n:]
	}
	if _, missing, err := w.drain(ctx); err != nil || missing > 0 {
		return fmt.Errorf("initial import: %d missing, %v", missing, err)
	}
	for i := 0; i < 200; i++ {
		if err := w.lookup(ctx, i%stableIDs, 0, time.Now(), nil); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}
	base, err := w.counters(ctx)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.base, w.sent = base, 0
	w.mu.Unlock()
	return nil
}

// startWatch follows home-2's repository in-process and matches each
// scoped delta of a bench ID to the write that caused it.
func (w *churnWorkload) startWatch(ctx context.Context) {
	reg := w.fed.VSRServer().Registry()
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		since := reg.Seq()
		for wctx.Err() == nil {
			changes, next, resync, err := reg.WatchChanges(wctx, since, time.Second)
			if err != nil {
				return
			}
			t := nowNS()
			w.mu.Lock()
			w.resync = w.resync || resync
			for _, c := range changes {
				id, ok := strings.CutPrefix(c.Entry.Name, "home-1/")
				if ok && strings.HasPrefix(id, benchPrefix) {
					w.deliver(id, c, t)
				}
			}
			w.mu.Unlock()
			since = next
		}
	}()
	w.stopWatch = func() { cancel(); <-done }
}

// expect records a write before it is sent: its delta may reach home-2
// before the write's own reply reaches the driver.
func (w *churnWorkload) expect(r *writeRec) {
	w.mu.Lock()
	w.hist[r.id] = append(w.hist[r.id], r)
	w.pending[r.id] = append(w.pending[r.id], r)
	w.sent++
	w.mu.Unlock()
}

// deliver matches one home-2 change to the oldest pending write it
// reflects. Changes matching none (a re-save of an unchanged import)
// are not effects of this run's writes. Caller holds mu.
func (w *churnWorkload) deliver(id string, c uddi.Change, t int64) {
	q := w.pending[id]
	for k, r := range q {
		del := c.Op == uddi.OpDelete || c.Op == uddi.OpExpire
		if (r.ap == "") != del || (!del && c.Entry.AccessPoint != r.ap) {
			continue
		}
		// Writes queued ahead of the matched one never showed at home-2.
		for range q[:k] {
			w.lost++
			w.eff.fail()
		}
		r.h2, r.received = t, true
		w.eff.add(float64(t-r.due) / 1e3)
		w.pending[id] = q[k+1:]
		return
	}
}

func (w *churnWorkload) drain(ctx context.Context) (dist, int, error) {
	err := await(ctx, drainWait, func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		for _, q := range w.pending {
			if len(q) > 0 {
				return false
			}
		}
		return true
	})
	if err != nil {
		return dist{}, 0, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	d, missing := w.eff, w.lost
	for id, q := range w.pending {
		for range q {
			d.fail()
			missing++
		}
		delete(w.pending, id)
	}
	w.eff, w.lost = dist{}, 0
	return d, missing, nil
}

func (w *churnWorkload) plan(rng *rand.Rand, seconds float64) []op {
	at := arrivals(rng, churnRate, seconds)
	ops := make([]op, len(at))
	take := func(from *[]int, to *[]int) int {
		s := *from
		k := rng.IntN(len(s))
		id := s[k]
		s[k] = s[len(s)-1]
		*from = s[:len(s)-1]
		*to = append(*to, id)
		return id
	}
	for k, due := range at {
		o := op{Due: due}
		x := rng.Float64()
		switch {
		case x < 0.20:
			o.Kind, o.Target = opLookup, rng.IntN(stableIDs)
		case x < 0.35 && len(w.absent) > 0:
			o.Kind, o.Target = opAdd, take(&w.absent, &w.live)
		case x < 0.50 && len(w.live) > 1:
			o.Kind, o.Target = opDelete, take(&w.live, &w.absent)
		default:
			o.Kind, o.Target = opWrite, w.live[rng.IntN(len(w.live))]
		}
		if o.Kind == opAdd || o.Kind == opWrite {
			w.gen++
			o.Val = w.gen
		}
		ops[k] = o
	}
	return ops
}

func (w *churnWorkload) exec(ctx context.Context, _ int, o op, id int, due time.Time, tr *tracer) error {
	if o.Kind == opLookup {
		return w.lookup(ctx, o.Target, id, due, tr)
	}
	sid := churnID(o.Target)
	rec := &writeRec{id: sid, op: -1, due: due.UnixNano(), start: nowNS()}
	if o.Kind != opDelete {
		rec.ap = endpointFor(sid, o.Val)
	}
	if tr != nil {
		rec.op = id
		w.mu.Lock()
		w.traced = append(w.traced, rec)
		w.mu.Unlock()
	}
	root := tr.add("register", id, -1, due.UnixNano(), 0)
	defer tr.end(root)
	tr.add("driver.wait", id, root, rec.due, rec.start)
	w.expect(rec)
	key := "uuid:svc-" + sid
	var got string
	var err error
	switch {
	case o.Kind == opDelete && tr == nil:
		rec.sent = nowNS()
		err = w.reg.Unregister(ctx, key)
	case o.Kind == opDelete:
		rec.sent = nowNS()
		s := tr.begin("transport.exchange", id, root)
		err = w.uc.Delete(ctx, key)
		tr.end(s)
	case tr == nil:
		rec.sent = nowNS()
		got, err = w.reg.Register(ctx, benchDesc(sid), rec.ap)
	default:
		// vsr.Register, taken apart: build the entry, then save it.
		s := tr.begin("vsr.entry", id, root)
		entry, eerr := vsr.EntryFor(benchDesc(sid), rec.ap)
		tr.end(s)
		if eerr != nil {
			return eerr
		}
		rec.sent = nowNS()
		s = tr.begin("transport.exchange", id, root)
		got, err = w.uc.Save(ctx, entry, registrationTTL)
		tr.end(s)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", sid, err)
	}
	if o.Kind != opDelete && got != key {
		return fmt.Errorf("%s registered under %q, want %q", sid, got, key)
	}
	return nil
}

// lookup resolves a stable ID at home-1 and checks the endpoint.
func (w *churnWorkload) lookup(ctx context.Context, i, id int, due time.Time, tr *tracer) error {
	sid := stableID(i)
	root := tr.add("lookup", id, -1, due.UnixNano(), 0)
	defer tr.end(root)
	tr.add("driver.wait", id, root, due.UnixNano(), nowNS())
	s := tr.begin("vsr.lookup", id, root)
	r, err := w.reg.Lookup(ctx, sid)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("lookup %s: %w", sid, err)
	}
	if want := endpointFor(sid, 0); r.Endpoint != want {
		return fmt.Errorf("lookup %s = %s, want %s", sid, r.Endpoint, want)
	}
	return nil
}

func (w *churnWorkload) counters(ctx context.Context) (map[string]float64, error) {
	var hs homeStats
	if err := w.home.call(ctx, homeCmd{Cmd: "stats"}, &hs); err != nil {
		return nil, err
	}
	c := procCounters(selfStats(), hs)
	for _, st := range w.fed.PeerStatus() {
		c["peer.applied"] += float64(st.Applied)
		c["peer.resyncs"] += float64(st.Resyncs)
	}
	addWire(c, w.fed.WireStats(), w.dialer.WireStatsSnapshot())
	if hs.Overrun {
		c["home1.overrun"] = 1
	}
	return c, nil
}

// check: once drained, home-2's imports of home-1 equal home-1's
// registry, the link never resynced, every write moved home-1's journal
// by exactly one, and every framework link stayed binary.
func (w *churnWorkload) check(ctx context.Context) error {
	w.mu.Lock()
	resync, sent := w.resync, w.sent
	w.mu.Unlock()
	if resync {
		return fmt.Errorf("the home-2 watch fell off its journal")
	}
	var own []string
	if err := w.home.call(ctx, homeCmd{Cmd: "ids"}, &own); err != nil {
		return err
	}
	var imported []string
	for _, e := range w.fed.VSRServer().Registry().Find(uddi.Query{}) {
		if id, ok := strings.CutPrefix(e.Name, "home-1/"); ok {
			imported = append(imported, id)
		}
	}
	sort.Strings(own)
	sort.Strings(imported)
	if strings.Join(own, ",") != strings.Join(imported, ",") {
		return fmt.Errorf("home-2 imports %d of home-1's services, home-1 has %d", len(imported), len(own))
	}
	// home-1's own watch may trail home-2's by a moment.
	var c map[string]float64
	delta := func(k string) float64 { return c[k] - w.base[k] }
	err := waitFor(ctx, func() (err error) {
		if c, err = w.counters(ctx); err == nil && delta("home1.watched") != float64(sent) {
			err = fmt.Errorf("home-1 journaled %v bench changes for %d writes", delta("home1.watched"), sent)
		}
		return err
	})
	if err != nil {
		return err
	}
	switch {
	case delta("peer.resyncs") != 0:
		return fmt.Errorf("peer link resynced %v times", delta("peer.resyncs"))
	case c["home1.overrun"] != 0:
		return fmt.Errorf("home-1's local watch fell off its journal")
	case delta("home1.seq") != delta("home1.watched")+delta("home1.foreign"):
		return fmt.Errorf("home-1's seq moved %v for %v bench and %v other changes",
			delta("home1.seq"), delta("home1.watched"), delta("home1.foreign"))
	}
	for _, st := range w.fed.PeerStatus() {
		if st.Proto != "binary" {
			return fmt.Errorf("peer link rides %q", st.Proto)
		}
	}
	return wireBinary(w.fed.WireStats(), w.dialer.WireStatsSnapshot())
}

func (w *churnWorkload) probe(ctx context.Context) (map[string]float64, error) {
	res := map[string]float64{}
	if err := w.home.call(ctx, homeCmd{Cmd: "probe", N: probeN}, &res); err != nil {
		return nil, err
	}
	return res, identityProbe(res, w.ids)
}

// extraSpans stops home-1, which writes out its watch marks, and joins
// them with the traced writes: each write's propagation is a root from
// its scheduled send to the home-2 delta, split at the moment home-1's
// own journal watch saw it. The k-th mark for an ID is the k-th write
// to that ID, since one worker sends every write in order.
func (w *churnWorkload) extraSpans() []spanRec {
	w.home.quit()
	var marks []watchMark
	data, err := os.ReadFile(w.marksPath)
	if err == nil {
		err = json.Unmarshal(data, &marks)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: home-1 marks: %v\n", err)
		return nil
	}
	seen := map[string]int{}
	h1 := map[*writeRec]int64{}
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, m := range marks {
		k := seen[m.ID]
		seen[m.ID]++
		if k < len(w.hist[m.ID]) {
			h1[w.hist[m.ID][k]] = m.T
		}
	}
	var tr tracer
	for _, r := range w.traced {
		t1, ok := h1[r]
		if !ok || !r.received {
			continue
		}
		root := tr.add("propagate", r.op, -1, r.due, r.h2)
		tr.add("driver.wait", r.op, root, r.due, r.start)
		tr.add("vsr.watch_wake", r.op, root, r.sent, t1)
		tr.add("peer.hop", r.op, root, t1, r.h2)
	}
	return tr.spans
}

// paths: a write is building the entry (saves only) and the uddi round
// trip; a lookup is vsr.Lookup's round trip; a write's propagation is its
// entry, then home-1's watch wake and the peer hop to home-2. The serving
// home's work is not probed apart here, so the exchange keeps all of it.
func (w *churnWorkload) paths(_ map[string]metric, _ map[string]float64, ops []op) map[string]path {
	var writes, saves float64
	for _, o := range ops {
		if o.Kind.isWrite() {
			writes++
			if o.Kind != opDelete {
				saves++
			}
		}
	}
	entry, un := pathTerm{"vsr.entry_us", saves / max(writes, 1)}, pathTerm{"unattributed_us", 1}
	return map[string]path{
		"register":  {terms: []pathTerm{entry, {"transport.exchange_us", 1}, un}},
		"lookup":    {terms: []pathTerm{{"vsr.lookup_us", 1}, un}},
		"propagate": {terms: []pathTerm{entry, {"vsr.watch_wake_us", 1}, {"peer.hop_us", 1}, un}},
	}
}

func (w *churnWorkload) teardown() {
	if w.stopWatch != nil {
		w.stopWatch()
	}
	if w.fed != nil {
		w.fed.Close()
	}
	if w.home != nil {
		w.home.quit()
	}
}

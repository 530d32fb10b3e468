package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// budgetTolerance bounds how far the published per-layer figures on a
// traced root's path, plus unattributed_us, may miss the root's traced
// median (less the driver's own wait for a worker) before the traced
// run fails.
const budgetTolerance = 0.10

// latencies splits a window's op latencies into reads and writes, and
// returns them with its effect latencies.
func latencies(m *measured) map[string]*dist {
	var read, write dist
	for i, o := range m.ops {
		if o.Kind.isWrite() {
			write.add(m.win.lat[i])
		} else {
			read.add(m.win.lat[i])
		}
	}
	return map[string]*dist{"read": &read, "write": &write, "effect": &m.eff}
}

// endToEnd fills the untraced run's metrics. Latencies are printed but
// kept out of the result: between identical runs on the baseline machine
// their spread (IQR/median 0.13-0.38 for p50s, up to 0.5 for p99s) is
// wider than any bound a gate may set, so they are reported with the
// per-layer metrics instead.
func endToEnd(out map[string]metric, m *measured, setupS float64) {
	bad := m.win.failures() + m.missing
	out["setup_s"] = metric{setupS, "s"}
	out["ok_ratio"] = metric{1 - float64(bad)/float64(len(m.ops)), "ratio"}
	out["ops_per_cpu_s"] = metric{float64(len(m.ops)-m.win.failures()) / (sumDelta(m, "cpu_ns.") / 1e9), "op/cpu-s"}
	out["rss_mb"] = metric{sumAfter(m, "maxrss_kb.") / 1024, "MB"}
	ls := latencies(m)
	for _, name := range []string{"read", "write", "effect"} {
		d := ls[name]
		p50, p99 := d.pct(0.99)
		fmt.Fprintf(os.Stdout, "%-6s n=%-7d p50 %9.1f us  p99 %9.1f us\n", name, d.n(), p50, p99)
	}
	fmt.Fprintf(os.Stdout, "%d ops failed, %d effects missing; window %.2fs\n",
		m.win.failures(), m.missing, m.win.elapsed.Seconds())
}

// sumDelta sums the window deltas of every counter named prefix*.
func sumDelta(m *measured, prefix string) float64 {
	s := 0.0
	for k := range m.after {
		if strings.HasPrefix(k, prefix) {
			s += m.delta(k)
		}
	}
	return s
}

// sumAfter sums the end-of-window values of every counter named prefix*.
func sumAfter(m *measured, prefix string) float64 {
	s := 0.0
	for k, v := range m.after {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// rootBudget is one kind of traced root (an op class or an effect
// chain): per root, its duration, its own self time — the part no layer
// span covers — and its layers' self times.
type rootBudget struct {
	total  []float64
	self   []float64
	layers []map[string]float64
}

// budgets groups a traced window's spans by root name.
func budgets(spans []spanRec) map[string]*rootBudget {
	self := selfTimes(spans)
	out := map[string]*rootBudget{}
	at := make([]int, len(spans)) // root span → its position in its budget
	for i, s := range spans {
		if s.Parent >= 0 {
			continue
		}
		b := out[s.Name]
		if b == nil {
			b = &rootBudget{}
			out[s.Name] = b
		}
		at[i] = len(b.total)
		b.total = append(b.total, float64(s.End-s.Start)/1e3)
		b.self = append(b.self, float64(self[i])/1e3)
		b.layers = append(b.layers, map[string]float64{})
	}
	for i, s := range spans {
		if s.Parent < 0 {
			continue
		}
		r := i
		for spans[r].Parent >= 0 {
			r = spans[r].Parent
		}
		b := out[spans[r].Name]
		b.layers[at[r]][s.Name] += float64(self[i]) / 1e3
	}
	return out
}

// layer returns every self time of one layer under this root.
func (b *rootBudget) layer(name string) []float64 {
	var xs []float64
	for _, l := range b.layers {
		if x, ok := l[name]; ok {
			xs = append(xs, x)
		}
	}
	return xs
}

// path is what a traced root is made of, in published per-layer
// metrics: each term is a metric and the share of the root's ops that
// incur it. inside is the serving home's part of transport.exchange_us —
// the costs the probes time apart that are spent within the exchange.
// Those terms are listed for themselves, so the exchange counts only
// what is left of it: the wire.
type path struct {
	terms  []pathTerm
	inside float64
}

type pathTerm struct {
	metric string
	share  float64
}

// reconcile adds up the published figures on a root's path and fails
// when the sum misses the root's traced median p50 by more than
// budgetTolerance, or when the serving home's costs exceed the exchange
// that contains them.
func reconcile(pub map[string]metric, p path, p50 float64) (sum float64, err error) {
	for _, t := range p.terms {
		m, ok := pub[t.metric]
		if !ok {
			return 0, fmt.Errorf("%s is on the path but not published", t.metric)
		}
		sum += m.Value * t.share
	}
	sum -= p.inside
	if x, ok := pub["transport.exchange_us"]; ok && p.inside > x.Value {
		return sum, fmt.Errorf("the serving home's probed costs (%.1fµs) exceed the exchange that contains them (%.1fµs)",
			p.inside, x.Value)
	}
	if math.Abs(sum-p50) > budgetTolerance*p50 {
		return sum, fmt.Errorf("published layers sum to %.1fµs against a traced p50 of %.1fµs (tolerance %.0f%%)",
			sum, p50, budgetTolerance*100)
	}
	return sum, nil
}

// layerMedian is the median self time of a layer across every root.
func layerMedian(bs map[string]*rootBudget, layer string) float64 {
	var xs []float64
	for _, b := range bs {
		xs = append(xs, b.layer(layer)...)
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// perLayer fills the traced run's metrics: self times from the traced
// window, counts and runtime figures from the untraced one, and server
// side costs from the probes. bg holds the homes' background rates per
// second, measured while no op was sent. A layer the workload does not
// exercise reads 0.
func perLayer(out map[string]metric, plain, traced *measured, bs map[string]*rootBudget, probes, bg map[string]float64) {
	ops := float64(len(plain.ops))
	writes := 0.0
	for _, o := range plain.ops {
		if o.Kind.isWrite() {
			writes++
		}
	}
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	set := func(name, unit string, v float64) { out[name] = metric{v, unit} }

	set("vsg.resolve_us", "us", layerMedian(bs, "vsg.resolve"))
	// Lookups the calls caused: the window's finds less those the homes
	// make of their own accord (home-control's PCM importers re-list the
	// registry every 200ms).
	set("vsg.resolve_miss_ratio", "ratio", per(plain.delta("finds")-bg["finds"]*plain.span.Seconds(), ops))
	set("vsg.cache_invalidations_per_write", "count", per(plain.delta("home1.invalidations"), writes))
	set("soap.encode_us", "us", layerMedian(bs, "soap.encode")+probes["soap.server_encode_us"])
	set("soap.decode_us", "us", layerMedian(bs, "soap.decode")+probes["soap.server_decode_us"])
	set("soap.bin_encode_us", "us", layerMedian(bs, "soap.bin_encode")+probes["soap.server_bin_encode_us"])
	set("soap.bin_decode_us", "us", layerMedian(bs, "soap.bin_decode")+probes["soap.server_bin_decode_us"])
	set("soap.bytes_per_call", "B", per(traced.delta("soap.bytes"), traced.delta("soap.calls")))
	set("transport.exchange_us", "us", layerMedian(bs, "transport.exchange"))
	set("transport.conns_opened", "count", plain.tcpOpens)
	set("transport.handshakes", "count", plain.delta("wire.handshakes"))
	set("transport.rekeys", "count", plain.delta("wire.rekeys"))
	set("transport.downgrades", "count", plain.delta("wire.downgrades"))
	set("identity.handshake_us", "us", probes["identity.handshake_us"])
	set("identity.acl_us", "us", probes["identity.acl_us"])
	set("audit.records_per_op", "count", per(plain.delta("home1.audit_seq"), ops))
	for _, name := range []string{"audit.append_us", "pcm.x10_invoke_us", "pcm.havi_invoke_us",
		"pcm.jini_invoke_us", "pcm.upnp_invoke_us", "jini.call_us", "upnp.control_us"} {
		set(name, "us", probes[name])
	}
	set("events.polls_per_event", "count", per(plain.delta("events.polls"), plain.delta("events.got")))
	set("events.missed", "count", plain.delta("events.missed"))
	set("uddi.wal_appends_per_write", "count", per(plain.delta("home1.wal_appends"), writes))
	set("uddi.wal_bytes_per_write", "B", per(plain.delta("home1.wal_bytes"), writes))
	set("uddi.fsyncs_per_s", "1/s", per(plain.delta("home1.fsyncs"), plain.win.elapsed.Seconds()))
	set("uddi.snapshots", "count", plain.delta("home1.snapshots"))
	set("vsr.entry_us", "us", layerMedian(bs, "vsr.entry"))
	set("vsr.lookup_us", "us", layerMedian(bs, "vsr.lookup"))
	set("vsr.watch_wake_us", "us", layerMedian(bs, "vsr.watch_wake"))
	set("peer.hop_us", "us", layerMedian(bs, "peer.hop"))
	set("peer.applied_per_write", "count", per(plain.delta("peer.applied"), writes))
	set("peer.resyncs", "count", plain.delta("peer.resyncs"))
	for _, p := range []string{"driver", "home1"} {
		set("runtime."+p+".cpu_us_per_op", "us", per(plain.delta("cpu_ns."+p)/1e3, ops))
		set("runtime."+p+".alloc_bytes_per_op", "B", per(plain.delta("alloc."+p), ops))
		set("runtime."+p+".gc_per_kop", "count", per(plain.delta("gc."+p)*1000, ops))
	}
	lag, queue := dist{xs: plain.win.lag}, dist{xs: plain.win.queue}
	_, lag99 := lag.pct(0.99)
	_, queue99 := queue.pct(0.99)
	set("driver.lag_p99_us", "us", lag99)
	set("driver.queue_p99_us", "us", queue99)
	set("driver.wait_us", "us", layerMedian(bs, "driver.wait"))
	for name, d := range latencies(plain) {
		p50, p99 := d.pct(0.99)
		set(name+"_p50_us", "us", p50)
		set(name+"_p99_us", "us", p99)
	}

	var unattributed []float64
	for name, b := range bs {
		if name != "propagate" {
			unattributed = append(unattributed, b.self...)
		}
	}
	set("unattributed_us", "us", median(unattributed))
	set("trace_overhead_ratio", "ratio", per(median(traced.win.lat), median(plain.win.lat)))
}

// budget reconciles every traced root with the published figures on its
// path, printing one line per root, and returns the roots that miss. The
// driver's wait for a worker is taken out of each op before the median
// and stays out of the paths: it is the driver's own queue, not a layer,
// and it is bimodal (about nothing when the worker is idle, the rest of
// the previous op when not), which keeps medians of the parts from
// adding up to the median of the whole.
func budget(pub map[string]metric, bs map[string]*rootBudget, paths map[string]path) error {
	names := make([]string, 0, len(bs))
	for name := range bs {
		names = append(names, name)
	}
	sort.Strings(names)
	var failures []string
	for _, name := range names {
		p, ok := paths[name]
		if !ok {
			failures = append(failures, name+": no path to reconcile it with")
			continue
		}
		b := bs[name]
		served := make([]float64, len(b.total))
		for k, d := range b.total {
			served[k] = d - b.layers[k]["driver.wait"]
		}
		p50 := median(served)
		sum, err := reconcile(pub, p, p50)
		fmt.Fprintf(os.Stdout, "budget %-10s n=%-6d", name, len(b.total))
		for _, t := range p.terms {
			if t.share == 1 {
				fmt.Fprintf(os.Stdout, " %s=%.1f", t.metric, pub[t.metric].Value)
			} else {
				fmt.Fprintf(os.Stdout, " %.3f×%s=%.1f", t.share, t.metric, pub[t.metric].Value)
			}
		}
		fmt.Fprintf(os.Stdout, " -inside_exchange=%.1f sum=%.1f traced_p50_less_wait=%.1f us\n", p.inside, sum, p50)
		if err != nil {
			failures = append(failures, name+": "+err.Error())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

// printTable writes the metrics to stdout, one per line with its unit.
func printTable(title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stdout, "== %s\n", title)
	for _, k := range names {
		fmt.Fprintf(os.Stdout, "  %-36s %14.4f %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

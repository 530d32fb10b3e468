package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"homeconnect/internal/core"
	"homeconnect/internal/core/events"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/service"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
)

// device is one piece of state a call workload reads and writes. Each
// belongs to one worker, so its reads and writes are ordered and every
// read must return the value last written.
type device struct {
	id     string
	read   string
	write  string // "" for a read-only device
	weight float64
	worker int
	// value converts a generated value to the written argument (nil for
	// VCR transport ops) and to the value a read must then return.
	arg  func(v int64) []service.Value
	want func(v int64) service.Value
}

func intDevice(id, read, write string, weight float64, worker int) device {
	return device{id: id, read: read, write: write, weight: weight, worker: worker,
		arg:  func(v int64) []service.Value { return []service.Value{service.IntValue(v)} },
		want: func(v int64) service.Value { return service.IntValue(v) }}
}

// The VCR's writes alternate Play and Stop, so each is a transition and
// publishes exactly one havi.transport event.
var vcrDevice = device{id: "havi:vcr-vcr1", read: "State", write: "Play/Stop",
	want: func(v int64) service.Value {
		if v == 1 {
			return service.StringValue("playing")
		}
		return service.StringValue("stopped")
	}}

func vcrOp(v int64) string {
	if v == 1 {
		return "Play"
	}
	return "Stop"
}

// homeDevices is home-control's mix over Jini, X10, HAVi and UPnP. Mail
// is left out: its store grows with every message, so no two windows
// would measure the same home.
func homeDevices() []device {
	vcr := vcrDevice
	vcr.weight = 1
	return []device{
		intDevice("x10:lamp-1", "Level", "SetLevel", 1, 0),
		vcr,
		intDevice("havi:tv-tuner", "Channel", "SetChannel", 1, 0),
		{id: "jini:laserdisc-1", read: "State", weight: 0.5,
			want: func(int64) service.Value { return service.StringValue("stopped") }},
		intDevice("jini:laserdisc-1", "Chapter", "SetChapter", 0.5, 0),
		{id: "upnp:porch-SwitchPower", read: "GetStatus", write: "SetTarget", weight: 1,
			arg:  func(v int64) []service.Value { return []service.Value{service.BoolValue(v == 1)} },
			want: func(v int64) service.Value { return service.BoolValue(v == 1) }},
	}
}

// awayDevices is away-control's mix: X10 and HAVi only, whose native
// cost is about a microsecond, so the wire dominates. The two workers
// get equal shares.
func awayDevices() []device {
	vcr := vcrDevice
	vcr.weight, vcr.worker = 0.25, 1
	return []device{
		intDevice("x10:lamp-1", "Level", "SetLevel", 0.5, 0),
		vcr,
		intDevice("havi:tv-tuner", "Channel", "SetChannel", 0.25, 1),
	}
}

// home-control's rate is about a quarter of one worker's closed-loop
// capacity on the baseline machine (--closed-loop: about 6300 ops/s).
// away-control's is under half of its 16000 ops/s, each of its two
// workers near a quarter: at a quarter in all (4000 ops/s),
// ops_per_cpu_s swung between two levels a quarter apart from run to
// run with the shared host (see README.md).
const (
	homeRate  = 1600.0 // ops/s
	awayRate  = 7500.0
	writeFrac = 0.3
)

// callWorkload is home-control (away false) and away-control (away
// true). In home-control the driver is one more network gateway of the
// open-mode home, calling over SOAP/HTTP. In away-control it is home-2,
// a whole federation with an identity, calling home-1's services by
// their scoped IDs over the session-keyed binary wire.
type callWorkload struct {
	away    bool
	devices []device
	last    []int64 // value last written per device, as generated

	home    *child
	ready   homeReady
	gw      *vsg.VSG
	fed     *core.Federation // away: home-2
	ids     [2]*identity.Identity
	prefix  string // away: "home-1/"
	fx      effects
	stopFx  func()
	polls   atomic.Int64
	got     atomic.Int64
	missed  atomic.Int64
	bytes   atomic.Int64
	calls   atomic.Int64
	samples sync.Map // op name → captured request/response, for the codec probe
}

type capture struct {
	ns, op string
	req    []byte
	result service.Value
}

func newCallWorkload(away bool) *callWorkload {
	w := &callWorkload{away: away, devices: homeDevices()}
	if away {
		w.devices, w.prefix = awayDevices(), "home-1/"
	}
	w.last = make([]int64, len(w.devices))
	return w
}

func (w *callWorkload) workers() int {
	if w.away {
		return 2
	}
	return 1
}

func (w *callWorkload) setup(ctx context.Context, dir string) error {
	cfg := homeConfig{}
	if w.away {
		for i, name := range []string{"home-1", "home-2"} {
			id, err := identity.Generate(name)
			if err != nil {
				return err
			}
			w.ids[i] = id
		}
		cfg = homeConfig{Name: "home-1", Identity: filepath.Join(dir, "home-1.id"),
			Trust: map[string]string{"home-2": w.ids[1].PublicKey()}, Audit: true}
		if err := w.ids[0].Save(cfg.Identity); err != nil {
			return err
		}
	}
	var err error
	if w.home, err = spawn(ctx, cfg, &w.ready); err != nil {
		return err
	}
	if w.away {
		if w.fed, err = core.NewHomeFederation("home-2"); err != nil {
			return err
		}
		if err := w.fed.SetIdentity(w.ids[1]); err != nil {
			return err
		}
		if err := w.fed.TrustHome("home-1", w.ids[0].PublicKey()); err != nil {
			return err
		}
		net, err := w.fed.AddNetwork("bench-net")
		if err != nil {
			return err
		}
		w.gw = net.Gateway()
		if err := w.fed.Peer(w.ready.Peer); err != nil {
			return err
		}
	} else {
		// The vsgd shape: one more network gateway against the home's
		// repository.
		w.gw = vsg.New("bench-net", w.ready.VSR)
		if err := w.gw.Start("127.0.0.1:0"); err != nil {
			return err
		}
	}
	for _, d := range w.devices {
		if err := waitFor(ctx, func() error { _, err := w.gw.Resolve(ctx, w.prefix+d.id); return err }); err != nil {
			return fmt.Errorf("resolve %s: %w", d.id, err)
		}
	}
	if err := w.startEffects(ctx); err != nil {
		return err
	}
	// Known state on every device, a VCR transition each way with its
	// event, and enough calls from every worker at once that each has
	// its own warm connection.
	for i, d := range w.devices {
		if d.write == "" {
			continue
		}
		// Values are 1 and up: the tuner has no channel 0. For the VCR
		// 1 is playing and 2 stopped; for the porch light 1 is on.
		for _, v := range []int64{1, 2, 1, 2} {
			if err := w.call(ctx, op{Kind: opWrite, Target: i, Val: v}, time.Now(), -1, nil); err != nil {
				return fmt.Errorf("warm %s: %w", d.id, err)
			}
		}
		w.last[i] = 2
	}
	var wg sync.WaitGroup
	errs := make([]error, w.workers())
	for wk := range errs {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for k := 0; k < 300 && errs[wk] == nil; k++ {
				for i, d := range w.devices {
					if d.worker != wk {
						continue
					}
					if err := w.call(ctx, op{Kind: opRead, Target: i, Val: w.last[i]}, time.Now(), -1, nil); err != nil {
						errs[wk] = err
					}
				}
			}
		}(wk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("warm: %w", err)
	}
	if _, missing, err := w.drain(ctx); err != nil || missing > 0 {
		return fmt.Errorf("warm events: %d missing, %v", missing, err)
	}
	return nil
}

// startEffects starts receiving havi.transport events: a long-poll on
// the HAVi gateway's event face at home, a push subscription from away.
func (w *callWorkload) startEffects(ctx context.Context) error {
	evURL := w.ready.Gateways["havi-net"] + "/events"
	if w.away {
		recv, err := events.NewPushReceiver(func(ev service.Event) {
			if ev.Topic == "havi.transport" {
				w.got.Add(1)
				w.fx.deliver(ev.Payload["state"].String(), time.Now())
			}
		})
		if err != nil {
			return err
		}
		c := events.Client{HTTP: transport.NewDialer(w.fed.Auth()).HTTPClient(), BaseURL: evURL}
		if _, err := c.Subscribe(ctx, recv.URL(), "havi.transport"); err != nil {
			recv.Close()
			return err
		}
		w.stopFx = recv.Close
		return nil
	}
	c := events.Client{BaseURL: evURL}
	_, since, err := c.Poll(ctx, 0, "", 0)
	if err != nil {
		return err
	}
	pctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for pctx.Err() == nil {
			evs, next, err := c.Poll(pctx, since, "", 10*time.Second)
			if err != nil {
				select {
				case <-pctx.Done():
				case <-time.After(10 * time.Millisecond):
				}
				continue
			}
			w.polls.Add(1)
			// Polling every topic makes the cursor gap exact: events in
			// the gap that the poll did not return fell off the ring.
			w.missed.Add(int64(next-since) - int64(len(evs)))
			t := time.Now()
			for _, ev := range evs {
				if ev.Topic == "havi.transport" {
					w.got.Add(1)
					w.fx.deliver(ev.Payload["state"].String(), t)
				}
			}
			since = next
		}
	}()
	w.stopFx = func() { cancel(); <-done }
	return nil
}

func (w *callWorkload) plan(rng *rand.Rand, seconds float64) []op {
	rate := homeRate
	if w.away {
		rate = awayRate
	}
	var total float64
	for _, d := range w.devices {
		total += d.weight
	}
	at := arrivals(rng, rate, seconds)
	ops := make([]op, len(at))
	for k, due := range at {
		x, i := rng.Float64()*total, 0
		for ; i < len(w.devices)-1 && x >= w.devices[i].weight; i++ {
			x -= w.devices[i].weight
		}
		d := w.devices[i]
		o := op{Due: due, Kind: opRead, Target: i, Worker: d.worker}
		if d.write != "" && rng.Float64() < writeFrac {
			o.Kind = opWrite
			switch {
			case d.id == vcrDevice.id:
				w.last[i] = 3 - w.last[i]
			case d.write == "SetTarget":
				w.last[i] = 1 + rng.Int64N(2)
			default:
				// Never the current value: every write changes state.
				w.last[i] = 1 + (w.last[i]+rng.Int64N(98))%99
			}
		}
		o.Val = w.last[i]
		ops[k] = o
	}
	return ops
}

func (w *callWorkload) exec(ctx context.Context, _ int, o op, id int, due time.Time, tr *tracer) error {
	return w.call(ctx, o, due, id, tr)
}

// call runs one op and checks its result: a read must return the
// device's last written value. A VCR write first registers the event it
// must cause.
func (w *callWorkload) call(ctx context.Context, o op, due time.Time, id int, tr *tracer) error {
	d := w.devices[o.Target]
	name, args := d.read, []service.Value(nil)
	if o.Kind == opWrite {
		name = d.write
		if d.id == vcrDevice.id {
			name = vcrOp(o.Val)
			w.fx.expect(due, d.want(o.Val).String())
		} else {
			args = d.arg(o.Val)
		}
	}
	var v service.Value
	var err error
	if tr == nil {
		v, err = w.gw.Call(ctx, w.prefix+d.id, name, args)
	} else {
		v, err = w.tracedCall(ctx, w.prefix+d.id, name, args, due, id, tr)
	}
	if err != nil {
		return fmt.Errorf("%s.%s: %w", d.id, name, err)
	}
	if o.Kind == opRead {
		if want := d.want(o.Val); !v.Equal(want) {
			return fmt.Errorf("%s.%s = %v, want %v", d.id, name, v, want)
		}
	}
	return nil
}

// tracedCall is VSG.Call taken apart into the public functions of each
// layer, with a span around each: resolve, encode, exchange, decode.
func (w *callWorkload) tracedCall(ctx context.Context, sid, name string, args []service.Value, due time.Time, id int, tr *tracer) (service.Value, error) {
	root := tr.add("call", id, -1, due.UnixNano(), 0)
	defer tr.end(root)
	tr.add("driver.wait", id, root, due.UnixNano(), nowNS())

	s := tr.begin("vsg.resolve", id, root)
	remote, err := w.gw.Resolve(ctx, sid)
	tr.end(s)
	if err != nil {
		return service.Value{}, err
	}
	spec, ok := remote.Desc.Interface.Operation(name)
	if !ok {
		return service.Value{}, fmt.Errorf("%s: %w", name, service.ErrNoSuchOperation)
	}
	ns := vsg.Namespace(remote.Desc.ID)
	call := soap.Call{Namespace: ns, Operation: name}
	for i, p := range spec.Inputs {
		call.Args = append(call.Args, soap.Arg{Name: p.Name, Value: args[i]})
	}
	action := ns + "#" + name
	var req, resp []byte
	var v service.Value
	var fault *soap.Fault
	if w.away {
		s = tr.begin("soap.bin_encode", id, root)
		req, err = soap.EncodeBinCall(call)
		tr.end(s)
		if err != nil {
			return v, err
		}
		s = tr.begin("transport.exchange", id, root)
		res, err := w.gw.Dialer().Exchange(ctx, remote.Endpoint, soap.BinCallContentType, action, req)
		tr.end(s)
		if err != nil {
			return v, err
		}
		resp = res.Body
		s = tr.begin("soap.bin_decode", id, root)
		v, fault, err = soap.DecodeBinResponse(resp)
		tr.end(s)
	} else {
		s = tr.begin("soap.encode", id, root)
		req, err = soap.EncodeCall(call)
		tr.end(s)
		if err != nil {
			return v, err
		}
		s = tr.begin("transport.exchange", id, root)
		resp, err = post(ctx, remote.Endpoint, action, req)
		tr.end(s)
		if err != nil {
			return v, err
		}
		s = tr.begin("soap.decode", id, root)
		v, fault, err = soap.DecodeResponse(resp)
		tr.end(s)
	}
	if err != nil {
		return v, err
	}
	if fault != nil {
		return v, fault.RemoteError()
	}
	w.bytes.Add(int64(len(req) + len(resp)))
	w.calls.Add(1)
	w.samples.Store(sid+"#"+name, capture{ns: ns, op: name, req: req, result: v})
	return v, nil
}

// post is the SOAP/HTTP exchange soap.Client makes in open mode.
func post(ctx context.Context, url, action string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	req.Header.Set("SOAPAction", `"`+action+`"`)
	resp, err := transport.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, soap.MaxEnvelopeBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusInternalServerError {
		return nil, fmt.Errorf("http status %s", resp.Status)
	}
	return data, nil
}

func (w *callWorkload) drain(ctx context.Context) (dist, int, error) {
	return w.fx.drain(ctx)
}

func (w *callWorkload) counters(ctx context.Context) (map[string]float64, error) {
	var hs homeStats
	if err := w.home.call(ctx, homeCmd{Cmd: "stats"}, &hs); err != nil {
		return nil, err
	}
	c := procCounters(selfStats(), hs)
	c["finds"] = float64(hs.Finds)
	if w.away {
		_, finds := w.fed.VSRServer().Registry().Stats()
		c["finds"] = float64(finds)
		addWire(c, w.fed.WireStats())
	}
	c["events.polls"] = float64(w.polls.Load())
	c["events.got"] = float64(w.got.Load())
	c["events.missed"] = float64(w.missed.Load())
	c["soap.bytes"] = float64(w.bytes.Load())
	c["soap.calls"] = float64(w.calls.Load())
	return c, nil
}

func (w *callWorkload) check(ctx context.Context) error {
	if err := w.fx.err(); err != nil {
		return err
	}
	if !w.away {
		return nil
	}
	// The away calls must cross a real socket into another process, on
	// the binary wire throughout.
	if w.ready.PID == os.Getpid() {
		return fmt.Errorf("home-1 is not a separate process")
	}
	if err := wireBinary(w.fed.WireStats()); err != nil {
		return fmt.Errorf("%w (home-1 serves %s and %v)", err, w.ready.VSR, w.ready.Gateways)
	}
	return nil
}

func (w *callWorkload) probe(ctx context.Context) (map[string]float64, error) {
	res := map[string]float64{}
	if err := w.home.call(ctx, homeCmd{Cmd: "probe", N: probeN}, &res); err != nil {
		return nil, err
	}
	if err := identityProbe(res, w.ids); err != nil {
		return nil, err
	}
	var caps []capture
	w.samples.Range(func(_, v any) bool {
		caps = append(caps, v.(capture))
		return true
	})
	if len(caps) == 0 {
		return res, nil
	}
	// The serving home's halves of the codec, on the workload's own
	// messages: decode the request, encode the response.
	names := [2]string{"soap.server_decode_us", "soap.server_encode_us"}
	if w.away {
		names = [2]string{"soap.server_bin_decode_us", "soap.server_bin_encode_us"}
	}
	dec, err := timeN(probeN, func(i int) error {
		c := caps[i%len(caps)]
		if w.away {
			_, err := soap.DecodeBinCall(c.req)
			return err
		}
		_, err := soap.DecodeCall(c.req)
		return err
	})
	if err != nil {
		return nil, err
	}
	enc, err := timeN(probeN, func(i int) error {
		c := caps[i%len(caps)]
		if w.away {
			_, err := soap.EncodeBinResponse(c.result)
			return err
		}
		_, err := soap.EncodeResponse(c.ns, c.op, c.result)
		return err
	})
	if err != nil {
		return nil, err
	}
	res[names[0]], res[names[1]] = median(dec), median(enc)
	return res, nil
}

// paths: a call is resolve, encode, the exchange and decode. Inside the
// exchange the serving home decodes the request, runs the PCM and its
// device, authorizes and audits the call (away), and encodes the
// response. The published codec figures already hold the serving halves;
// the PCM is weighted by the op mix.
func (w *callWorkload) paths(pub map[string]metric, probes map[string]float64, ops []op) map[string]path {
	enc, dec, srv := "soap.encode_us", "soap.decode_us", "soap.server_"
	if w.away {
		enc, dec, srv = "soap.bin_encode_us", "soap.bin_decode_us", "soap.server_bin_"
	}
	p := path{terms: []pathTerm{{"vsg.resolve_us", 1}, {enc, 1},
		{"transport.exchange_us", 1}, {dec, 1}, {"unattributed_us", 1}}}
	p.inside = probes[srv+"encode_us"] + probes[srv+"decode_us"]
	share := map[string]float64{}
	for _, o := range ops {
		share[pcmMetric(w.devices[o.Target].id)] += 1 / float64(len(ops))
	}
	for _, m := range []string{"pcm.x10_invoke_us", "pcm.havi_invoke_us", "pcm.jini_invoke_us", "pcm.upnp_invoke_us"} {
		if share[m] > 0 {
			p.terms = append(p.terms, pathTerm{m, share[m]})
			p.inside += share[m] * pub[m].Value
		}
	}
	if w.away {
		audits := pub["audit.records_per_op"].Value
		p.terms = append(p.terms, pathTerm{"identity.acl_us", 1}, pathTerm{"audit.append_us", audits})
		p.inside += pub["identity.acl_us"].Value + audits*pub["audit.append_us"].Value
	}
	return map[string]path{"call": p}
}

// pcmMetric names the probe of the PCM that serves a device.
func pcmMetric(id string) string {
	network, _, _ := strings.Cut(id, ":")
	return "pcm." + network + "_invoke_us"
}

func (w *callWorkload) extraSpans() []spanRec { return nil }

func (w *callWorkload) teardown() {
	if w.stopFx != nil {
		w.stopFx()
	}
	if w.fed != nil {
		w.fed.Close()
	} else if w.gw != nil {
		w.gw.Close()
	}
	if w.home != nil {
		w.home.quit()
	}
}

// Package vsg implements the Virtual Service Gateway (§3.1): "a gateway
// which connects middleware to another middleware using certain protocol
// which decides the information of services such as interfaces, locations
// and data." As in the prototype, the inter-gateway protocol is SOAP over
// HTTP (§4.1): every service exported from a middleware network becomes a
// SOAP endpoint on its gateway, registered in the Virtual Service
// Repository; calls to remote services resolve through the VSR and travel
// as SOAP RPC to the owning gateway.
//
// The gateway also mounts the event hub extension (see
// internal/core/events) under /events, addressing the asynchronous-
// notification gap the paper hit in §4.2.
//
// Two departures from the paper's poll model keep repository load and
// staleness independent of call rate: VSR registrations renew in one
// batched request per refresh interval (RegisterAll), and the resolve
// cache is driven by the repository's change watch — entries are
// invalidated or rewritten the moment the VSR journals a change, with the
// cache TTL surviving only as the fallback staleness bound while the
// watch is down (degraded mode, surfaced via Health).
package vsg

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/events"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/ops"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/soap"
	"homeconnect/internal/transport"
	"homeconnect/internal/vclock"
)

// namespacePrefix qualifies SOAP operation elements with the target
// service identity.
const namespacePrefix = "urn:homeconnect:"

// procGateways registers every running gateway in this process by base
// URL. When a resolved endpoint belongs to one of them, the call can be
// dispatched in-process — straight to the registered service.Invoker —
// skipping HTTP and the SOAP codec entirely (the loopback fast path).
// Single-process federations (one host running every gateway, the
// homesim deployment shape) make this the common case.
var (
	procMu       sync.RWMutex
	procGateways = make(map[string]*VSG)
)

// servicesPath is the gateway's SOAP mount; endpoints are
// "<base>/services/<id>".
const servicesPath = "/services/"

// Namespace returns the SOAP namespace for a federation service ID.
func Namespace(serviceID string) string { return namespacePrefix + serviceID }

// ServiceIDFromNamespace inverts Namespace.
func ServiceIDFromNamespace(ns string) (string, bool) {
	if !strings.HasPrefix(ns, namespacePrefix) {
		return "", false
	}
	return ns[len(namespacePrefix):], true
}

// export is one locally exported service.
type export struct {
	desc    service.Description
	invoker service.Invoker
	key     string // VSR registration key
}

// VSG is one middleware network's gateway.
type VSG struct {
	name string
	// home names the residence this gateway belongs to (empty for a
	// single-home federation). Set before Start and immutable after: it
	// gates the loopback fast path (cross-home calls always ride the
	// wire) and lets inbound calls addressed by this home's scoped IDs
	// resolve to local exports.
	home string
	vsr  *vsr.VSR
	hub  *events.Hub

	// auth is the home's authentication context (nil = open mode
	// forever); set before Start. authHTTP is the credential-signing
	// client outbound SOAP and repository traffic rides when auth is
	// live.
	auth     *identity.Auth
	authHTTP *http.Client
	// dialer owns outbound protocol negotiation when auth is live:
	// repository traffic and cross-home calls try the binary fast path
	// and degrade to signed SOAP/HTTP per authority. Rebuilt alongside
	// authHTTP; nil in open mode.
	dialer *transport.Dialer
	// bin is the inbound binary face sharing the listener with HTTP
	// (nil in open mode; inert on detached gateways). binaryOff records
	// SetBinaryEnabled(false) calls made before Start builds bin.
	bin       *transport.BinServer
	binaryOff bool
	// rt, when set (SetTransport), carries all outbound wire traffic
	// instead of the shared TCP transport — the dialer seam a
	// transport.MemNet plugs into.
	rt http.RoundTripper
	// clock is the gateway's time source (SetClock); refresh cadence and
	// cache-expiry stamps follow it.
	clock vclock.Clock

	ln    net.Listener
	httpS *http.Server
	// base is the URL authority for a detached gateway (StartDetached) —
	// a virtual hostname on an in-memory network, no listener.
	base string

	mu      sync.Mutex
	exports map[string]*export
	// resolveCache holds recent VSR lookups; see SetCacheTTL.
	resolveCache map[string]cachedRemote
	cacheTTL     time.Duration
	closed       bool

	refreshCancel context.CancelFunc
	refreshDone   chan struct{}
	watchDone     chan struct{}

	// watchEnabled gates the repository watch; set before Start.
	watchEnabled bool

	// refresh health, guarded by mu: refreshLoop failures would otherwise
	// vanish silently while the VSR lets registrations lapse.
	refreshFailures int
	lastRefreshErr  string
	lastRefreshOK   time.Time

	// watch health, guarded by mu. While watchUp, cached resolutions are
	// push-invalidated and never go stale; while down, the cache TTL is
	// the only staleness bound (degraded mode, surfaced via Health).
	watchUp      bool
	lastWatchErr string
	// changedSeq records the latest delta sequence per service ID and
	// cacheGen counts resyncs/outages; together they fence cache inserts
	// whose repository lookup predates a concurrent change (the looked-up
	// data would be stale yet never invalidated).
	changedSeq map[string]uint64
	cacheGen   uint64

	// loopbackOff disables in-process dispatch on this (calling) gateway;
	// atomic because it gates the per-call hot path. The zero value means
	// loopback is on.
	loopbackOff atomic.Bool

	// stats for the benchmark harness; atomic, off the mutex — they sit
	// on the per-call hot path.
	inboundCalls  atomic.Uint64
	outboundCalls atomic.Uint64
	loopbackCalls atomic.Uint64
	deniedCalls   atomic.Uint64
	// watch accounting: deltas applied and cache entries invalidated or
	// rewritten by push notifications.
	watchDeltas   atomic.Uint64
	invalidations atomic.Uint64
	watchResyncs  atomic.Uint64

	// auditLog, when set (SetAudit), backs the gateway's /audit face and
	// receives this gateway's boundary events — watch state changes, call
	// admissions and denials. One atomic load gates every hot-path
	// record, so auditing off costs nothing measurable.
	auditLog atomic.Pointer[audit.Log]
	auditRec atomic.Pointer[audit.Recorder]
}

type cachedRemote struct {
	remote  vsr.Remote
	expires time.Time
}

// New builds a gateway named name against the repository at vsrURL.
func New(name, vsrURL string) *VSG {
	return &VSG{
		name:         name,
		vsr:          vsr.New(vsrURL),
		hub:          events.NewHub(),
		clock:        vclock.System,
		exports:      make(map[string]*export),
		resolveCache: make(map[string]cachedRemote),
		changedSeq:   make(map[string]uint64),
		cacheTTL:     2 * time.Second,
		watchEnabled: true,
	}
}

// SetClock overrides the gateway's time source — the registration-
// refresh cadence and resolve-cache expiry stamps. Call before Start;
// tests and the deterministic simulation install a vclock.Virtual.
func (g *VSG) SetClock(c vclock.Clock) {
	if c != nil {
		g.clock = c
	}
}

// SetTransport routes the gateway's outbound wire traffic — repository
// operations and cross-home SOAP — through rt instead of the shared TCP
// transport; credential signing still applies on top. The simulation
// passes its transport.MemNet here. Call before Start and before
// SetAuth takes effect on traffic.
func (g *VSG) SetTransport(rt http.RoundTripper) {
	g.rt = rt
	g.rebuildHTTP()
}

// Name returns the gateway's network name.
func (g *VSG) Name() string { return g.name }

// VSR returns the repository client (used by PCM importers).
func (g *VSG) VSR() *vsr.VSR { return g.vsr }

// SetHome names the residence this gateway belongs to; call before
// Start. Exports gain a service.CtxHome context entry, calls addressed
// as "<home>/<id>" resolve locally when the scope matches, and the
// loopback fast path is confined to gateways of the same home — a
// cross-home call always travels the wire, the boundary that separates
// houses in a real deployment (see DESIGN.md §11).
func (g *VSG) SetHome(home string) {
	g.home = home
}

// Home returns the gateway's home name ("" for single-home federations).
func (g *VSG) Home() string { return g.home }

// SetAuth installs the home's authentication context; call before
// Start. From then on (whenever the context has an identity — it may
// gain one later, no restart needed) the gateway signs its outbound
// traffic — repository registration/resolution/watch and cross-home SOAP
// calls — verifies response signatures, requires a trusted caller
// identity on its inbound SOAP and event faces, and enforces the export
// policy plus service ACL on calls arriving from other homes. The
// in-process loopback fast path is untouched: a loopback call never
// leaves the home, and its authorization check is the same nil-fast
// pointer test the wire path uses.
func (g *VSG) SetAuth(a *identity.Auth) {
	g.auth = a
	g.rebuildHTTP()
}

// rebuildHTTP derives the outbound client from the auth context and the
// injected transport. With neither set it stays nil: the SOAP client
// and the repository client fall back to their own shared-transport
// defaults, the original behaviour.
func (g *VSG) rebuildHTTP() {
	if g.dialer != nil {
		g.dialer.Close()
		g.dialer = nil
	}
	switch {
	case g.auth != nil:
		// The Dialer owns credentials and per-authority protocol
		// negotiation; its HTTP side is the credential-signing client.
		g.dialer = transport.NewDialer(g.auth)
		g.dialer.Transport = g.rt
		if g.binaryOff {
			g.dialer.Binary = false
		}
		g.authHTTP = g.dialer.HTTPClient()
	case g.rt != nil:
		g.authHTTP = &http.Client{Transport: g.rt}
	default:
		g.authHTTP = nil
	}
	if g.dialer != nil {
		g.vsr.SetDialer(g.dialer)
	} else if g.authHTTP != nil {
		g.vsr.SetHTTPClient(g.authHTTP)
	}
}

// Auth returns the gateway's authentication context (nil in open mode).
func (g *VSG) Auth() *identity.Auth { return g.auth }

// Dialer returns the gateway's outbound dialer (nil in open mode) — the
// federation assembler reads per-link wire protocol stats from it.
func (g *VSG) Dialer() *transport.Dialer { return g.dialer }

// SetAudit installs the home's audit log: it backs the gateway's /audit
// face and receives this gateway's boundary events (watch up/down/
// resync, call admissions) stamped with the gateway's face name. nil
// turns auditing off. Safe to call at any time; typically wired by the
// federation assembler alongside SetAuth.
func (g *VSG) SetAudit(l *audit.Log) {
	if l == nil {
		g.auditLog.Store(nil)
		g.auditRec.Store(nil)
		return
	}
	g.auditLog.Store(l)
	rec := audit.WithFace(l, "vsg:"+g.name, g.home)
	g.auditRec.Store(&rec)
}

// auditEvent emits an audit event if auditing is on: one atomic load on
// the off path.
func (g *VSG) auditEvent(ev audit.Event) {
	p := g.auditRec.Load()
	if p != nil {
		(*p).Record(ev)
	}
}

// authorize applies the home-boundary decision to one inbound call:
// callers from this home pass, callers from other homes must clear the
// export policy and the service ACL. id is the unscoped local service
// ID. The returned error wraps service.ErrForbidden, and surfaces to
// wire callers as the same *service.RemoteError the loopback path
// produces (both route through soap.FaultFromError).
func (g *VSG) authorize(caller, id string) error {
	if g.auth == nil {
		return nil
	}
	if err := g.auth.Authorize(caller, id); err != nil {
		g.deniedCalls.Add(1)
		return err
	}
	return nil
}

// canonicalID maps a possibly home-scoped service ID to the form local
// exports are registered under: this home's own scope is stripped, any
// other scope is kept (it names a service that only the repository can
// locate).
func (g *VSG) canonicalID(id string) string {
	if g.home == "" {
		return id
	}
	if home, local, ok := service.SplitScopedID(id); ok && home == g.home {
		return local
	}
	return id
}

// Hub returns the gateway's event hub.
func (g *VSG) Hub() *events.Hub { return g.hub }

// SetCacheTTL adjusts resolve caching; zero disables it (each call hits
// the repository, the ablation measured by BenchmarkVSRFindCached). With
// the repository watch up, the TTL is only the fallback staleness bound:
// cached entries are push-invalidated and served regardless of age.
func (g *VSG) SetCacheTTL(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.cacheTTL = d
	g.resolveCache = make(map[string]cachedRemote)
}

// SetLoopbackEnabled gates the loopback fast path on this gateway's
// outbound calls (default on): resolved endpoints served by a gateway in
// the same process dispatch straight to the target's service.Invoker,
// skipping HTTP and the SOAP codec while preserving wire semantics
// (argument validation, fault mapping through service.RemoteError, call
// accounting on both gateways). Disable it — the vsgd -no-loopback flag —
// to force every call onto the wire, e.g. to benchmark the SOAP path.
func (g *VSG) SetLoopbackEnabled(on bool) {
	g.loopbackOff.Store(!on)
}

// SetBinaryEnabled turns the binary fast path off (or back on) for this
// gateway, both directions: outbound calls stop offering the handshake
// and inbound hellos are refused, so every exchange rides signed
// SOAP/HTTP — the vsgd -binary=false flag and the SOAP-only home of a
// mixed-mode federation. Default on whenever auth is live.
func (g *VSG) SetBinaryEnabled(on bool) {
	g.binaryOff = !on
	if g.dialer != nil {
		g.dialer.SetBinary(on && g.auth != nil)
	}
	if g.bin != nil {
		g.bin.SetEnabled(on)
	}
}

// SetWatchEnabled gates the gateway's own repository watch; call before
// Start. With the watch off the gateway degrades to the paper's poll
// model: blind TTL-bounded caching and no push invalidation (the middle
// point of the DESIGN.md §7 ablation), unless its owner feeds it a shared
// change stream through ApplyDelta.
func (g *VSG) SetWatchEnabled(on bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.watchEnabled = on
}

// Start brings the gateway up on addr ("127.0.0.1:0" for ephemeral) and
// begins refreshing VSR registrations.
func (g *VSG) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("vsg %s: listen: %w", g.name, err)
	}
	g.ln = ln
	g.httpS = &http.Server{Handler: g.buildMux()}
	serveLn := ln
	if g.bin != nil {
		// Share the port: the demultiplexer sniffs the binary preamble and
		// routes those connections to the session-keyed face; in-process
		// peers dial through the local registry without a socket.
		serveLn = transport.Demux(ln, g.bin)
		transport.RegisterLocal(ln.Addr().String(), g.bin)
	}
	go func() { _ = g.httpS.Serve(serveLn) }()
	procMu.Lock()
	procGateways[g.BaseURL()] = g
	procMu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	g.refreshCancel = cancel
	g.refreshDone = make(chan struct{})
	go g.refreshLoop(ctx)
	g.mu.Lock()
	watch := g.watchEnabled
	g.mu.Unlock()
	if watch {
		g.watchDone = make(chan struct{})
		go g.watchLoop(ctx)
	}
	return nil
}

// StartDetached brings the gateway up with no TCP listener and no
// background loops: its wire faces are the returned handler (registered
// on an in-memory network under base, e.g. "home-17-jini"), exports
// refresh only when the owner calls RefreshExports, and no repository
// watch runs, so resolutions are TTL-cached unless the owner feeds
// deltas through ApplyDelta. Nothing here ticks on its own.
// The gateway still joins the in-process loopback registry: same-home
// loopback dispatch is one of the paths under measurement.
func (g *VSG) StartDetached(base string) http.Handler {
	g.base = base
	h := g.buildMux()
	procMu.Lock()
	procGateways[g.BaseURL()] = g
	procMu.Unlock()
	return h
}

// buildMux assembles the gateway's wire faces, shared by the listening
// and detached constructions.
func (g *VSG) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	// Both wire faces sit behind the home-boundary middleware: with an
	// identity installed, callers must present a trusted home's signature
	// (refused in each face's own fault vocabulary); in open mode the
	// wrappers pass through untouched.
	mux.Handle("/services/", identity.Require(g.auth, false, soap.AuthFaultWriter,
		soap.NewHTTPHandler(inbound{g: g})))
	mux.Handle("/events/", identity.Require(g.auth, false, identity.HTTPDeny,
		http.StripPrefix("/events", events.Handler(g.hub))))
	// Read-only operability faces, private to the home's own identity
	// once one is installed (Require passes through in open mode).
	mux.Handle("/health", identity.Require(g.auth, true, identity.HTTPDeny,
		ops.HealthHandler(func() any { return g.healthReport() })))
	mux.Handle("/audit", identity.Require(g.auth, true, identity.HTTPDeny,
		ops.AuditHandler(func() *audit.Log { return g.auditLog.Load() })))
	if g.auth != nil {
		// The binary fast-path face: session-authenticated callers reach
		// the same inbound dispatch as the SOAP face, with the XML codec
		// replaced by the binary call encoding.
		g.bin = transport.NewBinServer(g.auth)
		if g.binaryOff {
			g.bin.SetEnabled(false)
		}
		g.bin.Handle(servicesPath, transport.BinHandlerFunc(g.serveBinCall))
	}
	return mux
}

// serveBinCall dispatches one binary-encoded call: DecodeBinCall,
// inbound dispatch under the session-verified caller, EncodeBinResponse
// — the exact semantics of the SOAP face with the XML codec replaced by
// the compact framing. Faults ride status 500, as SOAP 1.1 requires,
// so both paths classify outcomes identically.
func (g *VSG) serveBinCall(ctx context.Context, caller string, req *transport.BinRequest) *transport.BinResponse {
	if req.ContentType != soap.BinCallContentType {
		return binFaultResponse(&soap.Fault{Code: "Client", String: "binary face: unsupported content type " + req.ContentType})
	}
	call, err := soap.DecodeBinCall(req.Body)
	if err != nil {
		return binFaultResponse(&soap.Fault{Code: "Client", String: err.Error()})
	}
	result, err := (inbound{g: g}).ServeSOAP(identity.WithCaller(ctx, caller), call)
	if err != nil {
		return binFaultResponse(soap.FaultFromError(err))
	}
	body, err := soap.EncodeBinResponse(result)
	if err != nil {
		return binFaultResponse(&soap.Fault{Code: "Server", String: err.Error()})
	}
	return &transport.BinResponse{Status: http.StatusOK, ContentType: soap.BinCallContentType, Body: body}
}

// binFaultResponse renders a fault on the binary face.
func binFaultResponse(f *soap.Fault) *transport.BinResponse {
	return &transport.BinResponse{
		Status:      http.StatusInternalServerError,
		ContentType: soap.BinCallContentType,
		Body:        soap.EncodeBinFault(f),
	}
}

// Close stops the gateway: exports are withdrawn from the VSR on a best-
// effort basis, the HTTP server shuts down and the hub closes.
func (g *VSG) Close() {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return
	}
	g.closed = true
	keys := make([]string, 0, len(g.exports))
	for _, e := range g.exports {
		keys = append(keys, e.key)
	}
	g.mu.Unlock()

	// Leave the loopback registry first: callers must fall back to the
	// wire (and observe the dead listener) rather than invoke a gateway
	// that is tearing down.
	if base := g.BaseURL(); base != "" {
		procMu.Lock()
		delete(procGateways, base)
		procMu.Unlock()
	}

	if g.refreshCancel != nil {
		g.refreshCancel()
		<-g.refreshDone
		if g.watchDone != nil {
			<-g.watchDone
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, key := range keys {
		_ = g.vsr.Unregister(ctx, key)
	}
	if g.bin != nil && g.ln != nil {
		transport.UnregisterLocal(g.ln.Addr().String())
	}
	if g.bin != nil {
		g.bin.Close()
	}
	if g.dialer != nil {
		g.dialer.Close()
	}
	if g.httpS != nil {
		_ = g.httpS.Close()
	}
	g.hub.Close()
}

// BaseURL returns the gateway's HTTP root: its TCP address when
// listening, its virtual hostname when detached.
func (g *VSG) BaseURL() string {
	if g.ln != nil {
		return "http://" + g.ln.Addr().String()
	}
	if g.base != "" {
		return "http://" + g.base
	}
	return ""
}

// EndpointFor returns the SOAP endpoint URL serving a local service.
func (g *VSG) EndpointFor(serviceID string) string {
	return g.BaseURL() + "/services/" + serviceID
}

// EventsURL returns the event hub mount point.
func (g *VSG) EventsURL() string { return g.BaseURL() + "/events" }

// Export publishes a local service to the federation: it gains a SOAP
// endpoint on this gateway and a VSR registration. The context tags the
// description with the gateway's network name.
func (g *VSG) Export(ctx context.Context, desc service.Description, invoker service.Invoker) error {
	if err := desc.Validate(); err != nil {
		return err
	}
	desc = desc.Clone()
	if desc.Context == nil {
		desc.Context = make(map[string]string)
	}
	desc.Context[service.CtxNetwork] = g.name
	if g.home != "" {
		desc.Context[service.CtxHome] = g.home
	}
	key, err := g.vsr.Register(ctx, desc, g.EndpointFor(desc.ID))
	if err != nil {
		return fmt.Errorf("vsg %s: export %s: %w", g.name, desc.ID, err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.exports[desc.ID] = &export{desc: desc, invoker: invoker, key: key}
	return nil
}

// Unexport withdraws a local service.
func (g *VSG) Unexport(ctx context.Context, serviceID string) error {
	g.mu.Lock()
	e, ok := g.exports[serviceID]
	if ok {
		delete(g.exports, serviceID)
	}
	g.mu.Unlock()
	if !ok {
		return fmt.Errorf("vsg %s: unexport %s: %w", g.name, serviceID, service.ErrNoSuchService)
	}
	return g.vsr.Unregister(ctx, e.key)
}

// Exports lists the IDs of locally exported services.
func (g *VSG) Exports() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.exports))
	for id := range g.exports {
		out = append(out, id)
	}
	return out
}

// localExport returns the local export for id, if any.
func (g *VSG) localExport(id string) (*export, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.exports[id]
	return e, ok
}

// refreshLoop renews exports at a fraction of the VSR TTL so they
// survive; the repository expires anything whose gateway dies. Each round
// is one batched RegisterAll, so a gateway with N exports costs the
// repository one request per interval, not N.
func (g *VSG) refreshLoop(ctx context.Context) {
	defer close(g.refreshDone)
	interval := g.vsr.TTL() / 3
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	ticker := g.clock.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C():
			_ = g.RefreshExports(ctx)
		}
	}
}

// RefreshExports renews every export's repository registration in one
// batched round trip: the body of one background refresh round, exposed
// so a detached gateway's owner can schedule renewal itself. Failures
// land in Health exactly as a background round's would.
func (g *VSG) RefreshExports(ctx context.Context) error {
	g.mu.Lock()
	regs := make([]vsr.Registration, 0, len(g.exports))
	for _, e := range g.exports {
		regs = append(regs, vsr.Registration{Desc: e.desc, Endpoint: g.EndpointFor(e.desc.ID)})
	}
	g.mu.Unlock()
	var roundErr error
	if len(regs) > 0 {
		rctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		_, err := g.vsr.RegisterAll(rctx, regs)
		cancel()
		if err != nil {
			roundErr = fmt.Errorf("vsg %s: refresh %d exports: %w", g.name, len(regs), err)
		}
	}
	g.mu.Lock()
	if roundErr != nil {
		g.refreshFailures++
		g.lastRefreshErr = roundErr.Error()
	} else {
		g.refreshFailures = 0
		g.lastRefreshOK = g.clock.Now()
	}
	g.mu.Unlock()
	return roundErr
}

// watchLoop consumes the repository's change stream and keeps the resolve
// cache exact: updates rewrite cached endpoints in place (a re-homed
// service is callable again as soon as the delta lands), deletions and
// expiries evict, and a resync or stream outage flushes or demotes the
// cache to its TTL fallback.
func (g *VSG) watchLoop(ctx context.Context) {
	defer close(g.watchDone)
	ch, err := g.vsr.Watch(ctx, 0)
	if err != nil {
		return
	}
	for d := range ch {
		g.ApplyDelta(d)
	}
}

// ApplyDelta folds one repository notification into the gateway's
// state, exactly as the gateway's own watch would: the entry point for
// an owner that runs one change stream for several gateways (a
// core.Federation watches its repository once and fans every delta out
// to its gateways, which start with their own watch off). Deltas must
// arrive in stream order; d is read-only and may be shared with other
// gateways. A closed gateway ignores them.
func (g *VSG) ApplyDelta(d vsr.Delta) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	switch d.Op {
	case vsr.DeltaUp:
		if !g.watchUp {
			g.auditEvent(audit.Event{Type: audit.WatchUp, Detail: "repository change stream connected"})
		}
		g.watchUp = true
		g.lastWatchErr = ""
	case vsr.DeltaDown:
		// Degraded mode: cached entries keep serving, but only within
		// their TTL — the blind staleness bound the watch normally lifts.
		if g.watchUp {
			detail := "repository change stream lost; resolve cache degraded to TTL bound"
			if d.Err != nil {
				detail += ": " + d.Err.Error()
			}
			g.auditEvent(audit.Event{Type: audit.WatchDown, Detail: detail})
		}
		g.watchUp = false
		if d.Err != nil {
			g.lastWatchErr = d.Err.Error()
		}
	case vsr.DeltaResync:
		g.watchResyncs.Add(1)
		g.auditEvent(audit.Event{Type: audit.WatchResync,
			Detail: fmt.Sprintf("journal skipped past cursor; %d cached resolutions flushed", len(g.resolveCache))})
		// The journal skipped past us; anything cached may be stale, and
		// recorded fence sequence numbers may come from a previous
		// registry incarnation (a restarted registry counts from zero
		// again, which would leave stale fences blocking cache fills).
		if len(g.resolveCache) > 0 {
			g.invalidations.Add(uint64(len(g.resolveCache)))
			g.resolveCache = make(map[string]cachedRemote)
		}
		g.changedSeq = make(map[string]uint64)
		g.cacheGen++
		g.watchUp = true
	case vsr.DeltaAdd, vsr.DeltaUpdate:
		g.watchDeltas.Add(1)
		g.stampChange(d)
		// Only rewrite what callers have actually resolved; the cache
		// tracks this gateway's working set, not the whole federation.
		if _, ok := g.resolveCache[d.ServiceID]; ok {
			// The delta may be shared with other gateways: cache a private
			// copy of its one mutable part, the context map, so no caller
			// of Resolve can reach another gateway's cached description.
			remote := d.Remote
			remote.Desc.Context = maps.Clone(remote.Desc.Context)
			g.resolveCache[d.ServiceID] = cachedRemote{
				remote:  remote,
				expires: g.clock.Now().Add(g.cacheTTL),
			}
			g.invalidations.Add(1)
		}
	case vsr.DeltaDelete, vsr.DeltaExpire:
		g.watchDeltas.Add(1)
		g.stampChange(d)
		if _, ok := g.resolveCache[d.ServiceID]; ok {
			delete(g.resolveCache, d.ServiceID)
			g.invalidations.Add(1)
		}
	}
}

// fencePruneLen and fenceHorizon bound the changedSeq fence map: once it
// outgrows fencePruneLen, stamps more than fenceHorizon sequence numbers
// behind the newest delta are dropped. A dropped stamp only mis-admits a
// cache fill whose repository inquiry was delayed across that many
// registry mutations — and such an entry still falls to the next delta
// for its ID. Without pruning the map would grow with every service ID
// ever journaled, for the life of the gateway.
const (
	fencePruneLen = 1024
	fenceHorizon  = 1024
)

// stampChange records a change delta's sequence number for the cache-fill
// fence, pruning ancient stamps. Caller holds mu.
func (g *VSG) stampChange(d vsr.Delta) {
	g.changedSeq[d.ServiceID] = d.Seq
	if len(g.changedSeq) > fencePruneLen && d.Seq > fenceHorizon {
		for id, seq := range g.changedSeq {
			if seq < d.Seq-fenceHorizon {
				delete(g.changedSeq, id)
			}
		}
	}
}

// Resolve finds the service with the given federation ID, consulting the
// resolve cache first. While the repository watch is up, cache hits are
// served regardless of age — entries are push-invalidated the moment the
// repository reports a change, so they cannot go stale. When the watch is
// down (degraded mode, see Health) the entry's TTL is the staleness bound
// again, as in the paper's poll model.
func (g *VSG) Resolve(ctx context.Context, serviceID string) (vsr.Remote, error) {
	g.mu.Lock()
	if c, ok := g.resolveCache[serviceID]; ok && (g.watchUp || g.clock.Now().Before(c.expires)) {
		g.mu.Unlock()
		return c.remote, nil
	}
	ttl := g.cacheTTL
	seenGen := g.cacheGen
	g.mu.Unlock()

	remote, seq, err := g.vsr.LookupSeq(ctx, serviceID)
	if err != nil {
		return vsr.Remote{}, err
	}
	if ttl > 0 {
		g.mu.Lock()
		// Fence: a delta newer than the inquiry means the looked-up data
		// is already stale and must not enter the cache, where push
		// invalidation — believing it already delivered that change —
		// would never evict it. Same for a resync/outage generation bump.
		if g.changedSeq[serviceID] <= seq && g.cacheGen == seenGen {
			g.resolveCache[serviceID] = cachedRemote{remote: remote, expires: g.clock.Now().Add(ttl)}
		}
		g.mu.Unlock()
	}
	return remote, nil
}

// List queries the repository.
func (g *VSG) List(ctx context.Context, q vsr.Query) ([]vsr.Remote, error) {
	return g.vsr.Find(ctx, q)
}

// Call invokes an operation on any federation service by ID. Local
// exports are invoked directly (they live on this gateway's network);
// remote services go out over SOAP to their owning gateway.
func (g *VSG) Call(ctx context.Context, serviceID, op string, args []service.Value) (service.Value, error) {
	serviceID = g.canonicalID(serviceID)
	if e, ok := g.localExport(serviceID); ok {
		opSpec, ok := e.desc.Interface.Operation(op)
		if !ok {
			return service.Value{}, fmt.Errorf("%s.%s: %w", serviceID, op, service.ErrNoSuchOperation)
		}
		if err := service.ValidateArgs(opSpec, args); err != nil {
			return service.Value{}, err
		}
		return e.invoker.Invoke(ctx, op, args)
	}
	remote, err := g.Resolve(ctx, serviceID)
	if err != nil {
		return service.Value{}, err
	}
	return g.CallRemote(ctx, remote, op, args)
}

// CallRemote invokes op on an already resolved remote service. When the
// endpoint is served by a gateway in this process and loopback is enabled,
// the call dispatches in-process (see SetLoopbackEnabled); otherwise it
// travels as SOAP over the shared HTTP transport.
func (g *VSG) CallRemote(ctx context.Context, remote vsr.Remote, op string, args []service.Value) (service.Value, error) {
	opSpec, ok := remote.Desc.Interface.Operation(op)
	if !ok {
		return service.Value{}, fmt.Errorf("%s.%s: %w", remote.Desc.ID, op, service.ErrNoSuchOperation)
	}
	if err := service.ValidateArgs(opSpec, args); err != nil {
		return service.Value{}, err
	}
	g.outboundCalls.Add(1)
	if target := g.loopbackTarget(remote.Endpoint, args); target != nil {
		g.loopbackCalls.Add(1)
		return target.invokeLocal(ctx, remote.Desc.ID, op, args)
	}
	call := soap.Call{Namespace: Namespace(remote.Desc.ID), Operation: op}
	for i, p := range opSpec.Inputs {
		call.Args = append(call.Args, soap.Arg{Name: p.Name, Value: args[i]})
	}
	// g.authHTTP (nil in open mode, letting the client fall back to the
	// shared transport) signs the envelope headers with this home's
	// identity, so the target home knows who is calling. The dialer, when
	// live, first offers the binary fast path to the target's authority.
	client := &soap.Client{URL: remote.Endpoint, HTTP: g.authHTTP, Dialer: g.dialer}
	return client.Call(ctx, Namespace(remote.Desc.ID)+"#"+op, call)
}

// loopbackPayloadCeiling routes borderline-huge requests onto the wire:
// above this conservative bound the encoded envelope might overflow
// soap.MaxEnvelopeBytes once escaping (worst case 6×: "&#34;" for a
// quote, U+FFFD for an invalid byte) or base64 wrapping expands the
// payload, and only the real codec can decide exactly. Sending those few
// calls over HTTP keeps the accept/reject boundary identical on both
// paths instead of approximating it. The 4 KiB headroom covers the
// envelope shell and operation/parameter elements.
const loopbackPayloadCeiling = (soap.MaxEnvelopeBytes - 4096) / 6

// payloadLen sums the variable-size payload bytes across values.
func payloadLen(vals []service.Value) int {
	total := 0
	for _, v := range vals {
		total += v.PayloadLen()
	}
	return total
}

// loopbackTarget returns the in-process gateway serving endpoint, or nil
// when the call must go over the wire.
func (g *VSG) loopbackTarget(endpoint string, args []service.Value) *VSG {
	if g.loopbackOff.Load() {
		return nil
	}
	if payloadLen(args) > loopbackPayloadCeiling {
		return nil
	}
	i := strings.Index(endpoint, servicesPath)
	if i < 0 {
		return nil
	}
	procMu.RLock()
	target := procGateways[endpoint[:i]]
	procMu.RUnlock()
	if target != nil && target.home != g.home {
		// Cross-home calls always ride the wire, even when both homes
		// share a process (homesim -homes N): the home boundary is the
		// deployment boundary, and benchmarks of federated calls must
		// measure the path a real away-from-home call takes.
		return nil
	}
	return target
}

// invokeLocal is the loopback receive side: the inbound SOAP handler's
// semantics without the codec. Argument validation, call accounting and
// fault shaping match the wire byte for byte at the API surface — a
// target-side failure surfaces as the same *service.RemoteError a decoded
// fault would have produced, so callers cannot tell the paths apart
// (loopback_test.go holds that equivalence).
func (g *VSG) invokeLocal(ctx context.Context, id, op string, args []service.Value) (service.Value, error) {
	if err := ctx.Err(); err != nil {
		// The wire's HTTP round trip would abort with the context error
		// wrapped in ErrUnavailable; keep both sentinels on loopback.
		return service.Value{}, fmt.Errorf("vsg: loopback: %w: %w", service.ErrUnavailable, err)
	}
	local := g.canonicalID(id)
	// Wire-equivalent authorization: a loopback call is by construction a
	// same-home call (loopbackTarget requires it), whose wire twin would
	// carry this home's own verified identity — but the check still runs,
	// through the same authorize and the same fault mapping, so the two
	// paths cannot diverge if the boundary semantics ever change.
	if err := g.authorize(g.home, local); err != nil {
		return service.Value{}, remoteErrorFrom(err)
	}
	e, ok := g.localExport(local)
	if !ok {
		// The wire would reach this same gateway and fault NoSuchService;
		// don't fall through to HTTP just to learn the same thing.
		return service.Value{}, remoteErrorFrom(fmt.Errorf("%s: %w", id, service.ErrNoSuchService))
	}
	opSpec, ok := e.desc.Interface.Operation(op)
	if !ok {
		return service.Value{}, remoteErrorFrom(fmt.Errorf("%s.%s: %w", id, op, service.ErrNoSuchOperation))
	}
	if err := service.ValidateArgs(opSpec, args); err != nil {
		return service.Value{}, remoteErrorFrom(err)
	}
	g.inboundCalls.Add(1)
	g.auditEvent(audit.Event{Type: audit.CallAdmit, Caller: g.home,
		Service: local, Op: op, Detail: "loopback"})
	v, err := e.invoker.Invoke(ctx, op, args)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			// Mid-call cancellation: the wire surfaces the context error
			// as a transport failure, not a remote fault.
			return service.Value{}, fmt.Errorf("vsg: loopback: %w: %w", service.ErrUnavailable, err)
		}
		return service.Value{}, remoteErrorFrom(err)
	}
	if !v.IsVoid() && !v.Kind().Valid() {
		// The wire path would fail to encode this result and fault
		// Server-side; mirror that instead of leaking an invalid value.
		return service.Value{}, remoteErrorFrom(fmt.Errorf("soap: result: %w", service.ErrBadKind))
	}
	if v.PayloadLen() > loopbackPayloadCeiling {
		// A result this large might overflow the wire's envelope bound;
		// encode the real response so the limit is enforced exactly as
		// the wire would (the caller's decode of a truncated envelope is
		// a plain error, not a fault). The encode cost is paid only by
		// payloads far beyond appliance-control scale.
		data, err := soap.EncodeResponse(Namespace(id), op, v)
		if err != nil {
			return service.Value{}, remoteErrorFrom(err)
		}
		if len(data) > soap.MaxEnvelopeBytes {
			return service.Value{}, fmt.Errorf("soap: response envelope exceeds %d bytes", soap.MaxEnvelopeBytes)
		}
	}
	return v, nil
}

// remoteErrorFrom maps a target-side error to the *service.RemoteError
// the wire path would deliver: classified through soap.FaultFromError on
// the serving side, rebuilt from the fault exactly as the HTTP client
// does (the shared Fault.RemoteError mapping).
func remoteErrorFrom(err error) error {
	return soap.FaultFromError(err).RemoteError()
}

// CallStats is the gateway's call accounting, the named form the
// /health face and homectl report.
type CallStats struct {
	// Inbound counts calls served for remote peers (wire and loopback
	// receive sides).
	Inbound uint64 `json:"inbound"`
	// Outbound counts calls issued to federation services.
	Outbound uint64 `json:"outbound"`
	// Loopback counts outbound calls that took the in-process fast path
	// instead of the wire.
	Loopback uint64 `json:"loopback"`
	// Denied counts inbound calls the home boundary refused (export
	// policy or service ACL).
	Denied uint64 `json:"denied"`
}

// CallStats returns a snapshot of the gateway's call counters.
func (g *VSG) CallStats() CallStats {
	return CallStats{
		Inbound:  g.inboundCalls.Load(),
		Outbound: g.outboundCalls.Load(),
		Loopback: g.loopbackCalls.Load(),
		Denied:   g.deniedCalls.Load(),
	}
}

// Health describes the gateway's repository liaison: the registration-
// refresh loop and the change watch. A non-zero
// ConsecutiveRefreshFailures with an aging LastRefreshOK means the VSR is
// expiring this gateway's exports: the dead-repository condition §3.3
// leaves otherwise invisible. WatchActive false on a watch-enabled
// gateway is degraded mode: resolutions fall back to blind TTL caching
// and may be stale for up to the cache TTL.
type Health struct {
	// ConsecutiveRefreshFailures counts refresh rounds since the last
	// fully successful one.
	ConsecutiveRefreshFailures int `json:"consecutive_refresh_failures"`
	// LastRefreshError is the most recent re-registration error.
	LastRefreshError string `json:"last_refresh_error,omitempty"`
	// LastRefreshOK is when a round last re-registered every export.
	LastRefreshOK time.Time `json:"last_refresh_ok"`
	// WatchActive reports a live repository change stream: cached
	// resolutions are push-invalidated and cannot go stale.
	WatchActive bool `json:"watch_active"`
	// LastWatchError is the failure that broke the watch stream, cleared
	// on recovery.
	LastWatchError string `json:"last_watch_error,omitempty"`
	// WatchDeltas counts change notifications applied since start.
	WatchDeltas uint64 `json:"watch_deltas"`
	// CacheInvalidations counts cached resolutions evicted or rewritten
	// by push notifications since start.
	CacheInvalidations uint64 `json:"cache_invalidations"`
	// WatchResyncs counts full cache flushes forced because the
	// repository journal skipped past this gateway's cursor (overrun, or
	// a registry that restarted without durable state). A durable
	// repository restart resumes the cursor and does not bump this.
	WatchResyncs uint64 `json:"watch_resyncs"`
	// LoopbackCalls counts outbound calls dispatched in-process instead
	// of over the wire (see SetLoopbackEnabled).
	LoopbackCalls uint64 `json:"loopback_calls"`
	// Calls is the gateway's call accounting, so one Health snapshot
	// carries everything the /health face reports.
	Calls CallStats `json:"calls"`
}

// healthReport is the gateway's /health face body: who this gateway is
// plus its Health snapshot and the audit log's summary.
func (g *VSG) healthReport() any {
	return struct {
		Network string      `json:"network"`
		Home    string      `json:"home,omitempty"`
		Health  Health      `json:"health"`
		Audit   audit.Stats `json:"audit"`
	}{
		Network: g.name,
		Home:    g.home,
		Health:  g.Health(),
		Audit:   g.auditLog.Load().Stats(),
	}
}

// Health reports the repository liaison's condition.
func (g *VSG) Health() Health {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Health{
		ConsecutiveRefreshFailures: g.refreshFailures,
		LastRefreshError:           g.lastRefreshErr,
		LastRefreshOK:              g.lastRefreshOK,
		WatchActive:                g.watchUp,
		LastWatchError:             g.lastWatchErr,
		WatchDeltas:                g.watchDeltas.Load(),
		CacheInvalidations:         g.invalidations.Load(),
		WatchResyncs:               g.watchResyncs.Load(),
		LoopbackCalls:              g.loopbackCalls.Load(),
		Calls:                      g.CallStats(),
	}
}

// inbound adapts the gateway's exports to the SOAP server: the client
// proxy direction of Figure 2 (remote federation calls invoking local
// middleware services).
type inbound struct {
	g *VSG
}

// ServeSOAP implements soap.Handler.
func (in inbound) ServeSOAP(ctx context.Context, call soap.Call) (service.Value, error) {
	id, ok := ServiceIDFromNamespace(call.Namespace)
	if !ok {
		return service.Value{}, fmt.Errorf("namespace %q: %w", call.Namespace, service.ErrNoSuchService)
	}
	// Peers address exports by this home's scoped IDs; strip our own
	// scope so both spellings reach the same export.
	local := in.g.canonicalID(id)
	// The home-boundary check comes before existence: a caller the ACL
	// refuses learns nothing about what this home runs. The caller home
	// was verified by the auth middleware in front of this handler.
	caller := identity.CallerFromContext(ctx)
	if err := in.g.authorize(caller, local); err != nil {
		return service.Value{}, err
	}
	e, ok := in.g.localExport(local)
	if !ok {
		return service.Value{}, fmt.Errorf("%s: %w", id, service.ErrNoSuchService)
	}
	op, ok := e.desc.Interface.Operation(call.Operation)
	if !ok {
		return service.Value{}, fmt.Errorf("%s.%s: %w", id, call.Operation, service.ErrNoSuchOperation)
	}
	args := make([]service.Value, len(call.Args))
	for i := range call.Args {
		args[i] = call.Args[i].Value
	}
	if err := service.ValidateArgs(op, args); err != nil {
		return service.Value{}, err
	}
	in.g.inboundCalls.Add(1)
	in.g.auditEvent(audit.Event{Type: audit.CallAdmit, Caller: caller,
		Service: local, Op: call.Operation, Detail: "wire"})
	return e.invoker.Invoke(ctx, call.Operation, args)
}

// Package core assembles the paper's framework (§3): a Virtual Service
// Repository (§3.3), one Virtual Service Gateway (§3.1) per middleware
// network, and the Protocol Conversion Managers (§3.2) attached to each
// gateway. The Federation type owns the lifecycle; the public homeconnect
// package at the module root re-exports it.
package core

import (
	"context"
	"fmt"
	"sync"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/ops"
	"homeconnect/internal/core/pcm"
	"homeconnect/internal/core/peer"
	"homeconnect/internal/core/scene"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/uddi"
)

// Federation is a running instance of the framework.
type Federation struct {
	vsrServer *vsr.Server
	// home names this residence when federating with other homes; empty
	// for the paper's single-home deployment.
	home string
	// auth is the home's shared authentication context: repository
	// faces, gateways and the peering all consult the same object, so
	// installing an identity or editing trust/ACLs takes effect
	// everywhere at once. Open (inert) until SetIdentity.
	auth *identity.Auth

	mu         sync.Mutex
	networks   map[string]*Network
	order      []string
	scenes     *scene.Engine
	peering    *peer.Peering
	noLoopback bool
	noBinary   bool
	closed     bool
	// stream is the home's one repository change stream, fanned out to
	// every gateway; started with the first network.
	stream *changeStream

	// auditLog is the home's tamper-evident audit plane, nil until
	// EnableAudit. One log per federation: every instrumented component
	// (registry, auth, peering, gateways) records into the same chain.
	auditLog *audit.Log
}

// Network is one middleware network: a gateway plus its attached PCMs.
type Network struct {
	fed  *Federation
	gw   *vsg.VSG
	mu   sync.Mutex
	pcms []pcm.PCM
}

// NewFederation starts a federation with its own repository on an
// ephemeral port: the paper's single-home deployment. To federate homes,
// use NewHomeFederation.
func NewFederation() (*Federation, error) {
	return NewHomeFederation("")
}

// NewHomeFederation starts a federation named as one home of a wider
// multi-home deployment. The name scopes this home's services in every
// peer's ID space ("<home>/<id>") and is required before Peer or
// Peering may be used; it must be unique among the homes that federate.
// The repository's export face (PeerURL) is live immediately, so other
// homes can peer with this one without further setup.
func NewHomeFederation(home string) (*Federation, error) {
	auth := identity.NewAuth(home)
	srv, err := vsr.StartServerAuth("127.0.0.1:0", auth)
	if err != nil {
		return nil, fmt.Errorf("core: start vsr: %w", err)
	}
	return assembleFederation(srv, home, auth)
}

// NewDurableHomeFederation is NewHomeFederation over a durable
// repository: the registry persists its change journal (WAL + periodic
// snapshots) under opts.Dir and recovers it — sequence numbers, entries,
// and remaining TTL lifetimes — on the next start. Use Shutdown (not just
// Close) for a marked clean stop.
func NewDurableHomeFederation(home string, opts uddi.DurabilityOptions) (*Federation, error) {
	reg, err := uddi.NewDurableServer(opts)
	if err != nil {
		return nil, fmt.Errorf("core: open durable registry: %w", err)
	}
	auth := identity.NewAuth(home)
	srv, err := vsr.StartServerWith("127.0.0.1:0", reg, auth)
	if err != nil {
		return nil, fmt.Errorf("core: start vsr: %w", err)
	}
	return assembleFederation(srv, home, auth)
}

// assembleFederation finishes construction over a started repository.
func assembleFederation(srv *vsr.Server, home string, auth *identity.Auth) (*Federation, error) {
	f := &Federation{
		vsrServer: srv,
		home:      home,
		auth:      auth,
		networks:  make(map[string]*Network),
	}
	if home != "" {
		p, err := peer.New(home, srv.Registry(), auth)
		if err != nil {
			srv.Close()
			return nil, err
		}
		f.peering = p
		srv.MountPeer(p.ExportView)
	}
	return f, nil
}

// Home returns the federation's home name ("" for single-home use).
func (f *Federation) Home() string { return f.home }

// VSRURL returns the repository endpoint.
func (f *Federation) VSRURL() string { return f.vsrServer.URL() }

// VSRServer exposes the repository server (stats, tests).
func (f *Federation) VSRServer() *vsr.Server { return f.vsrServer }

// AddNetwork creates and starts a gateway for a new middleware network.
// The gateway runs no repository watch of its own: the federation's one
// change stream, opened with the first network, feeds it every delta.
func (f *Federation) AddNetwork(name string) (*Network, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("core: federation closed")
	}
	if _, exists := f.networks[name]; exists {
		return nil, fmt.Errorf("core: network %q already exists", name)
	}
	gw := vsg.New(name, f.vsrServer.URL())
	gw.SetHome(f.home)
	gw.SetAuth(f.auth)
	gw.SetAudit(f.auditLog)
	gw.SetLoopbackEnabled(!f.noLoopback)
	gw.SetBinaryEnabled(!f.noBinary)
	gw.SetWatchEnabled(false)
	if f.stream == nil {
		s, err := startChangeStream(f.vsrServer.URL(), f.auth, !f.noBinary)
		if err != nil {
			return nil, err
		}
		f.stream = s
	}
	if err := gw.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	f.stream.join(gw)
	n := &Network{fed: f, gw: gw}
	f.networks[name] = n
	f.order = append(f.order, name)
	if f.scenes != nil {
		f.scenes.AddSource(name, scene.HubSource{Hub: gw.Hub()})
	}
	return n, nil
}

// Scenes returns the federation's scene engine, creating it on first use.
// The engine invokes services through the federation's gateways and sees
// every network's event hub as a trigger source — scenes loaded here
// compose services across middleware boundaries.
func (f *Federation) Scenes() *scene.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.scenes == nil {
		f.scenes = scene.NewEngine(scene.CallerFunc(
			func(ctx context.Context, serviceID, op string, args []service.Value) (service.Value, error) {
				return f.Call(ctx, serviceID, op, args...)
			}))
		for _, name := range f.order {
			f.scenes.AddSource(name, scene.HubSource{Hub: f.networks[name].gw.Hub()})
		}
		if f.closed {
			// The federation is already torn down: hand back an engine
			// that refuses to load or start anything rather than one
			// arming triggers against dead gateways.
			f.scenes.Close()
		}
	}
	return f.scenes
}

// SetLoopback gates the in-process loopback fast path on every gateway
// this federation creates (and those already created): with it on — the
// default — cross-network calls between gateways sharing this process
// dispatch straight to the target's service.Invoker, skipping HTTP and
// the SOAP codec with identical results and faults. Turn it off to force
// every call onto the wire, e.g. to measure the SOAP path or to emulate
// gateways deployed on separate hosts (internal/sim does this).
func (f *Federation) SetLoopback(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noLoopback = !on
	for _, n := range f.networks {
		n.gw.SetLoopbackEnabled(on)
	}
}

// SetBinaryWire gates the session-keyed binary fast path on every
// endpoint this federation owns: the repository's binary face, each
// gateway's inbound face and outbound dialer, the change stream's
// dialer, and the peering's import links. On — the default whenever the
// home has an identity — framework traffic to peers that negotiate it
// rides compact MAC'd frames; off, every hello is refused and all
// traffic stays on signed SOAP/HTTP, the byte-identical interop wire (a
// SOAP-only home in a mixed federation).
// Open-mode federations are unaffected: without an identity no session
// can be keyed and the wire is SOAP regardless.
func (f *Federation) SetBinaryWire(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.noBinary = !on
	f.vsrServer.SetBinaryEnabled(on)
	for _, n := range f.networks {
		n.gw.SetBinaryEnabled(on)
	}
	if f.stream != nil {
		f.stream.dialer.SetBinary(on)
	}
	if f.peering != nil {
		f.peering.SetBinaryEnabled(on)
	}
}

// WireStats aggregates per-authority wire-protocol state — negotiated
// protocol, session age, handshake/rekey/downgrade counts — across every
// dialer this federation owns: each gateway's outbound dialer, the
// change stream's dialer and the peering's link dialer. Authorities
// dialed by more than one component merge (counters sum; "binary" wins
// the protocol tag).
func (f *Federation) WireStats() transport.WireStats {
	f.mu.Lock()
	gws := make([]*vsg.VSG, 0, len(f.networks))
	for _, n := range f.networks {
		gws = append(gws, n.gw)
	}
	p := f.peering
	stream := f.stream
	f.mu.Unlock()

	out := make(transport.WireStats)
	merge := func(ws transport.WireStats) {
		for authority, ls := range ws {
			prev, ok := out[authority]
			if !ok {
				out[authority] = ls
				continue
			}
			prev.Handshakes += ls.Handshakes
			prev.Rekeys += ls.Rekeys
			prev.Downgrades += ls.Downgrades
			if ls.Protocol == "binary" {
				prev.Protocol = ls.Protocol
			}
			if ls.SessionAgeMS > prev.SessionAgeMS {
				prev.SessionAgeMS = ls.SessionAgeMS
			}
			out[authority] = prev
		}
	}
	for _, gw := range gws {
		if d := gw.Dialer(); d != nil {
			merge(d.WireStatsSnapshot())
		}
	}
	if stream != nil {
		merge(stream.dialer.WireStatsSnapshot())
	}
	if p != nil {
		merge(p.WireStats())
	}
	return out
}

// Peering returns the federation's inter-home peering layer. It errors
// unless the federation was built with NewHomeFederation: peers file
// each other's services under home scopes, so an unnamed home has no
// address in the wider federation.
func (f *Federation) Peering() (*peer.Peering, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("core: federation closed")
	}
	if f.peering == nil {
		return nil, fmt.Errorf("core: federation has no home name; use NewHomeFederation to federate")
	}
	return f.peering, nil
}

// Peer starts replicating another home's registry into this one: that
// home's exported services become resolvable here as "<home>/<id>" and
// callable through any of this federation's gateways. url is the remote
// repository's peering endpoint (vsr.Server.PeerURL, printed by vsrd).
// Peering is one-directional; the remote home peers back for mutual
// visibility.
func (f *Federation) Peer(url string) error {
	p, err := f.Peering()
	if err != nil {
		return err
	}
	_, err = p.Peer(url)
	return err
}

// Unpeer stops replicating from a peer and withdraws its services.
func (f *Federation) Unpeer(url string) error {
	p, err := f.Peering()
	if err != nil {
		return err
	}
	return p.Unpeer(url)
}

// PeerURL returns the endpoint other homes pass to Peer to replicate
// from this one. It serves 404 on federations without a home name.
func (f *Federation) PeerURL() string { return f.vsrServer.PeerURL() }

// SetExportPolicy installs the home's export policy: which local
// services peers may see, as allow/deny ID patterns with
// events.TopicMatches semantics (exact, "*", "prefix*"). Deny wins; an
// empty allow list admits everything.
func (f *Federation) SetExportPolicy(pol peer.Policy) error {
	p, err := f.Peering()
	if err != nil {
		return err
	}
	p.SetPolicy(pol)
	return nil
}

// Auth returns the federation's authentication context: the one object
// the repository faces, gateways and peering all consult. Most callers
// want the typed wrappers (SetIdentity, TrustHome, SetServiceACL)
// instead.
func (f *Federation) Auth() *identity.Auth { return f.auth }

// SetIdentity installs the home's identity, switching every face of
// this federation from the paper's open trust model to enforced
// authentication: wire operations are signed and verified, peers must
// be trusted (TrustHome) to see or call anything, and the export policy
// plus service ACL apply to every authenticated caller. It errors on a
// federation without a home name — there is nothing to authenticate as.
// Install the identity before peers or clients start talking to this
// home; components pick it up without a restart.
func (f *Federation) SetIdentity(id *identity.Identity) error {
	if f.home == "" {
		return fmt.Errorf("core: federation has no home name; use NewHomeFederation to take an identity")
	}
	return f.auth.SetIdentity(id)
}

// TrustHome records another home's public key (hex, from
// Identity.PublicKey): requests and responses signed by that home verify
// from now on, which is what lets it peer with and call into this one.
func (f *Federation) TrustHome(home, publicKeyHex string) error {
	return f.auth.Trust(home, publicKeyHex)
}

// SetServiceACL installs the per-service access-control list enforced —
// together with the export policy, deny winning at every layer — against
// every authenticated caller from another home, on both the peering
// view (visibility) and the gateways' inbound call path (invocation).
func (f *Federation) SetServiceACL(acl identity.ACL) {
	f.auth.SetACL(acl)
}

// PeerStatus reports every peering link keyed by remote URL — the
// inter-home counterpart of Health. A link with Connected false is in
// degraded mode: services already imported from that home keep serving
// until their TTL lapses, then vanish until the link recovers.
// Authenticated reports mutual per-operation authentication on the live
// stream; auth refusals from either side land in LastError.
func (f *Federation) PeerStatus() map[string]peer.Status {
	f.mu.Lock()
	p := f.peering
	f.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Status()
}

// Network returns a network by name, or nil.
func (f *Federation) Network(name string) *Network {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.networks[name]
}

// Networks lists network names in creation order.
func (f *Federation) Networks() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.order...)
}

// Gateway returns the network's Virtual Service Gateway.
func (n *Network) Gateway() *vsg.VSG { return n.gw }

// Attach starts a PCM on this network's gateway.
func (n *Network) Attach(ctx context.Context, p pcm.PCM) error {
	if err := p.Start(ctx, n.gw); err != nil {
		return fmt.Errorf("core: attach %s PCM to %s: %w", p.Middleware(), n.gw.Name(), err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.pcms = append(n.pcms, p)
	return nil
}

// anyGateway returns some gateway for federation-level operations.
func (f *Federation) anyGateway() (*vsg.VSG, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range f.order {
		return f.networks[name].gw, nil
	}
	return nil, fmt.Errorf("core: federation has no networks")
}

// Call invokes an operation on any federation service by ID, routing
// through an arbitrary gateway (all gateways can reach all services).
func (f *Federation) Call(ctx context.Context, serviceID, op string, args ...service.Value) (service.Value, error) {
	gw, err := f.anyGateway()
	if err != nil {
		return service.Value{}, err
	}
	return gw.Call(ctx, serviceID, op, args)
}

// Services lists every service currently registered in the repository.
func (f *Federation) Services(ctx context.Context) ([]vsr.Remote, error) {
	gw, err := f.anyGateway()
	if err != nil {
		return nil, err
	}
	return gw.List(ctx, vsr.Query{})
}

// EnableAudit turns on the home's tamper-evident audit plane: a
// hash-chained, Merkle-batched log (see internal/core/audit) that every
// instrumented component of this federation records its boundary
// decisions into — registry expiries and re-homes, peer link up/down,
// watch state changes, call admissions, policy/ACL denials, auth
// refusals and replay rejections. It also mounts the read-only /health
// and /audit faces on the repository listener (private to the home's
// own identity once one is installed). Call it once, before traffic
// flows; it errors if already enabled or if the log cannot open.
func (f *Federation) EnableAudit(opts audit.Options) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("core: federation closed")
	}
	if f.auditLog != nil {
		return fmt.Errorf("core: audit already enabled")
	}
	l, err := audit.New(opts)
	if err != nil {
		return err
	}
	f.auditLog = l
	f.auth.SetRecorder(audit.WithFace(l, "auth", f.home))
	f.vsrServer.Registry().SetAuditRecorder(audit.WithFace(l, "vsr", f.home))
	if f.peering != nil {
		f.peering.SetRecorder(audit.WithFace(l, "peer", f.home))
	}
	for _, n := range f.networks {
		n.gw.SetAudit(l)
	}
	f.vsrServer.MountOps(
		ops.HealthHandler(func() any { return f.healthReport() }),
		ops.AuditHandler(func() *audit.Log { return f.Audit() }),
	)
	return nil
}

// Audit returns the federation's audit log, nil until EnableAudit.
func (f *Federation) Audit() *audit.Log {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.auditLog
}

// RegistryStats summarizes the repository for health reports.
type RegistryStats struct {
	// Entries is the number of live registrations.
	Entries int `json:"entries"`
	// Saves and Finds count operations since start.
	Saves int64 `json:"saves"`
	Finds int64 `json:"finds"`
	// Watches counts watch requests served since start: one per
	// long-poll round of each watcher — the home's change stream, any
	// standalone gateway, each peer link.
	Watches int64 `json:"watches"`
	// Seq is the change journal's newest sequence number.
	Seq uint64 `json:"seq"`
}

// HealthReport is the federation's /health face body: one snapshot of
// everything the deployment can say about its own condition.
type HealthReport struct {
	// Home names this residence ("" single-home).
	Home string `json:"home,omitempty"`
	// AuthEnabled reports enforced authentication (an installed identity).
	AuthEnabled bool `json:"auth_enabled"`
	// Registry summarizes the repository.
	Registry RegistryStats `json:"registry"`
	// Networks maps each gateway to its Health snapshot.
	Networks map[string]vsg.Health `json:"networks,omitempty"`
	// Peers maps each peering link to its Status.
	Peers map[string]peer.Status `json:"peers,omitempty"`
	// Wire maps each dialed authority to its wire-protocol state: which
	// protocol the link negotiated, session age, and handshake, rekey and
	// downgrade counts.
	Wire transport.WireStats `json:"wire,omitempty"`
	// Audit summarizes the audit log.
	Audit audit.Stats `json:"audit"`
	// Durability reports the repository's persistence state (WAL,
	// snapshots, last boot's recovery); absent for in-memory registries.
	Durability *uddi.DurabilityStats `json:"durability,omitempty"`
}

// healthReport assembles the /health face body.
func (f *Federation) healthReport() HealthReport {
	reg := f.vsrServer.Registry()
	saves, finds := reg.Stats()
	var durability *uddi.DurabilityStats
	if d := reg.Durability(); d.Enabled {
		durability = &d
	}
	return HealthReport{
		Home:        f.home,
		AuthEnabled: f.auth.Enabled(),
		Registry: RegistryStats{
			Entries: reg.Len(),
			Saves:   saves,
			Finds:   finds,
			Watches: reg.Watches(),
			Seq:     reg.Seq(),
		},
		Networks:   f.Health(),
		Peers:      f.PeerStatus(),
		Wire:       f.WireStats(),
		Audit:      f.Audit().Stats(),
		Durability: durability,
	}
}

// Health reports every gateway's repository liaison, keyed by network
// name. A gateway with WatchActive false is running degraded: its
// resolutions fall back to blind TTL caching until the repository watch
// recovers.
func (f *Federation) Health() map[string]vsg.Health {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]vsg.Health, len(f.networks))
	for name, n := range f.networks {
		out[name] = n.gw.Health()
	}
	return out
}

// Close stops the scene engine, PCMs, the change stream, gateways and the
// repository, in that order: scenes first so no composition fires while
// the services it calls are being torn down. A durable repository's WAL
// is flushed but left unmarked; use Shutdown for the marked clean stop.
func (f *Federation) Close() { f.closeWith(false) }

// Shutdown is Close plus a durable clean stop: once every mutator has
// stopped, the repository writes its clean-shutdown WAL marker (and
// journals a registry.shutdown audit event), so the next boot from the
// same data directory skips tail-scan recovery. Equivalent to Close for
// an in-memory repository.
func (f *Federation) Shutdown() { f.closeWith(true) }

func (f *Federation) closeWith(clean bool) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	engine := f.scenes
	peering := f.peering
	stream := f.stream
	names := append([]string(nil), f.order...)
	nets := make([]*Network, 0, len(names))
	for _, name := range names {
		nets = append(nets, f.networks[name])
	}
	f.mu.Unlock()

	if engine != nil {
		engine.Close()
	}
	// Stop replication before gateways go down so no half-dead import
	// churns the registry mid-teardown.
	if peering != nil {
		peering.Close()
	}
	for _, n := range nets {
		n.mu.Lock()
		pcms := append([]pcm.PCM(nil), n.pcms...)
		n.mu.Unlock()
		for _, p := range pcms {
			_ = p.Stop()
		}
	}
	// No delta reaches a gateway mid-teardown, and the stream's parked
	// long-poll ends before the repository does.
	if stream != nil {
		stream.close()
	}
	for _, n := range nets {
		n.gw.Close()
	}
	if clean {
		// Every mutator is quiet: the marker is genuinely the last record.
		_ = f.vsrServer.Registry().Shutdown()
	}
	f.vsrServer.Close()
	f.mu.Lock()
	l := f.auditLog
	f.mu.Unlock()
	_ = l.Close()
}

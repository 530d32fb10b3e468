// One Dialer per home: every gateway, the change stream and the peering
// share the federation's transport.Dialer — one link pool, one
// negotiation state per authority, one set of wire stats, one binary
// switch — and Close releases it.
package core

import (
	"context"
	"fmt"
	"net/url"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// newArmedFed builds a home federation with a fresh identity and no
// networks yet.
func newArmedFed(t *testing.T, home string) (*Federation, *identity.Identity) {
	t.Helper()
	id, err := identity.Generate(home)
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewHomeFederation(home)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	if err := fed.SetIdentity(id); err != nil {
		t.Fatal(err)
	}
	return fed, id
}

// exportWhere exports a service answering Where with the home's name.
func exportWhere(t *testing.T, fed *Federation, network, id string) {
	t.Helper()
	inv := service.InvokerFunc(func(context.Context, string, []service.Value) (service.Value, error) {
		return service.StringValue(fed.Home()), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fed.Network(network).Gateway().Export(ctx, streamDesc(id), inv); err != nil {
		t.Fatal(err)
	}
}

// authority is a URL's "host:port", the key of WireStats.
func authority(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}

// withoutAge drops the one field that moves between two snapshots.
func withoutAge(ws transport.WireStats) transport.WireStats {
	out := make(transport.WireStats, len(ws))
	for a, ls := range ws {
		ls.SessionAgeMS = 0
		out[a] = ls
	}
	return out
}

// TestHomeDialsItsRepositoryOnce: an armed five-network home, each
// network exporting a service, peered by a second home. Its gateways and
// its change stream reach the home's own repository through one link
// pool, so the whole home handshakes with it at most twice — the parked
// stream long-poll holds one link and every other exchange shares the
// other — where a Dialer per component would handshake once per gateway
// and once more for the stream.
func TestHomeDialsItsRepositoryOnce(t *testing.T) {
	a, aID := newArmedFed(t, "home-a")
	b, bID := newSecureFed(t, "home-b")
	trustFeds(t, a, aID, b, bID)
	gws := addNetworks(t, a, 5)
	for i := range gws {
		exportWhere(t, a, fmt.Sprintf("net-%d", i), fmt.Sprintf("test:svc-%d", i))
	}
	waitAll(t, gws, "watch active", watchActive)
	if err := b.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	for i := range gws {
		waitCallable(t, b, fmt.Sprintf("home-a/test:svc-%d", i))
	}

	for _, gw := range gws {
		if gw.Dialer() != a.dialer {
			t.Fatalf("gateway %s rides its own Dialer", gw.Name())
		}
	}
	ws := a.WireStats()
	own, ok := ws[authority(t, a.VSRURL())]
	if !ok || own.Protocol != "binary" {
		t.Fatalf("own repository link %+v (present %v), want binary; stats %v", own, ok, ws)
	}
	t.Logf("own repository link: %+v", own)
	if own.Handshakes > 2 {
		t.Errorf("home handshook %d times with its own repository, want at most 2", own.Handshakes)
	}
	if got, want := withoutAge(a.WireStats()), withoutAge(a.dialer.WireStatsSnapshot()); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("WireStats %v, want the home Dialer's snapshot %v", got, want)
	}
}

// TestSetBinaryWireSwitchesTheWholeHome: one SetBinaryWire(false) takes
// the gateways (own repository and cross-home calls), the change stream
// and the peering's import links off the binary fast path together, and
// the home keeps working over SOAP/HTTP without a new handshake.
func TestSetBinaryWireSwitchesTheWholeHome(t *testing.T) {
	a, aID := newSecureFed(t, "home-a")
	b, bID := newSecureFed(t, "home-b")
	trustFeds(t, a, aID, b, bID)
	if err := a.Peer(b.PeerURL()); err != nil {
		t.Fatal(err)
	}
	waitCallable(t, a, "home-b/test:svc")

	// The one Dialer has negotiated binary with all three kinds of
	// authority: its own repository (gateways and stream), the peer's
	// export face (import link) and the peer's gateway (cross-home call).
	remoteGW := b.Network("net").Gateway().BaseURL() + "/services/test:svc"
	urls := []string{a.VSRURL(), b.PeerURL(), remoteGW}
	for _, u := range urls {
		if p := a.dialer.ProtocolFor(u); p != "binary" || !a.dialer.Ready(u) {
			t.Fatalf("%s: protocol %q ready %v before the switch, want binary", u, p, a.dialer.Ready(u))
		}
	}
	before := withoutAge(a.WireStats())

	a.SetBinaryWire(false)
	for _, u := range urls {
		if a.dialer.Ready(u) {
			t.Errorf("%s: still ready for binary after SetBinaryWire(false)", u)
		}
	}
	// Every component keeps working over SOAP: a new export reaches the
	// home's gateways through the stream, a new remote service arrives
	// through the import link, and both answer calls.
	exportWhere(t, a, "net", "test:after")
	waitCallable(t, a, "test:after")
	exportWhere(t, b, "net", "test:remote-after")
	waitCallable(t, a, "home-b/test:remote-after")
	if got := withoutAge(a.WireStats()); fmt.Sprint(got) != fmt.Sprint(before) {
		t.Errorf("wire stats moved while binary was off:\nbefore %v\nafter  %v", before, got)
	}
}

// TestFederationCloseReleasesTheDialer: Close ends every session the
// home's Dialer opened — no pooled link outlives the federation — and
// leaves no change-stream goroutine behind.
func TestFederationCloseReleasesTheDialer(t *testing.T) {
	a, aID := newArmedFed(t, "home-a")
	if err := a.EnableAudit(audit.Options{RingSize: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	b, bID := newSecureFed(t, "home-b")
	trustFeds(t, a, aID, b, bID)
	addNetworks(t, a, 2)
	exportWhere(t, a, "net-0", "test:svc")
	if err := a.Peer(b.PeerURL()); err != nil {
		t.Fatal(err)
	}
	if err := b.Peer(a.PeerURL()); err != nil {
		t.Fatal(err)
	}
	waitCallable(t, a, "home-b/test:svc")
	waitCallable(t, b, "home-a/test:svc")

	a.Close()
	log := a.Audit()
	opened := map[string]string{}
	for _, r := range log.Tail(1<<14, audit.SessionEstablish) {
		if strings.Contains(r.Detail, "(dialer)") {
			opened[strings.Fields(r.Detail)[1]] = r.Caller
		}
	}
	if len(opened) == 0 {
		t.Fatal("no dialer-side session recorded; the home never rode the binary wire")
	}
	for _, typ := range []audit.Type{audit.SessionExpire, audit.SessionRekey} {
		for _, r := range log.Tail(1<<14, typ) {
			delete(opened, strings.Fields(r.Detail)[1])
		}
	}
	if len(opened) != 0 {
		t.Errorf("%d dialer sessions still open after Close: %v", len(opened), opened)
	}
	b.Close() // its stream would otherwise count against home-a's
	waitNoStreamGoroutines(t)
}

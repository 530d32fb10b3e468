// Tests for vsrd's server assembly: peering wire-up and flag validation.
package main

import (
	"context"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

func TestStartServerRejectsPeerFlagsWithoutHome(t *testing.T) {
	if _, err := startServer(config{addr: "127.0.0.1:0", peers: []string{"http://x/peer"}}); err == nil {
		t.Error("peers without -home accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", deny: []string{"x10:*"}}); err == nil {
		t.Error("export policy without -home accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", idFile: "x.id"}); err == nil {
		t.Error("-identity without -home accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", trust: []string{"a=bb"}}); err == nil {
		t.Error("-trust without -home accepted")
	}
}

func TestStartServerArmsIdentity(t *testing.T) {
	idFile := filepath.Join(t.TempDir(), "cottage.id")
	s, err := startServer(config{
		addr: "127.0.0.1:0", home: "cottage", idFile: idFile,
		aclDeny: []string{"*=x10:*"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.identity == nil || !s.identityGenerated || s.identity.Home() != "cottage" {
		t.Fatalf("identity not generated: %+v generated=%v", s.identity, s.identityGenerated)
	}
	if !s.Auth().Enabled() {
		t.Error("auth not enabled with -identity")
	}
	// Unsigned requests are refused on every face.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := vsr.New(s.URL()).Find(ctx, vsr.Query{}); !errors.Is(err, service.ErrUnauthenticated) {
		t.Errorf("unsigned find against armed vsrd: %v, want ErrUnauthenticated", err)
	}
	// A second start reloads the same identity.
	s2, err := startServer(config{addr: "127.0.0.1:0", home: "cottage", idFile: idFile})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.identityGenerated || s2.identity.PublicKey() != s.identity.PublicKey() {
		t.Errorf("identity not reloaded: generated=%v", s2.identityGenerated)
	}
	// Malformed trust/ACL specs are refused.
	if _, err := startServer(config{addr: "127.0.0.1:0", home: "x", idFile: filepath.Join(t.TempDir(), "x.id"), trust: []string{"no-separator"}}); err == nil {
		t.Error("malformed trust spec accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", home: "x", idFile: filepath.Join(t.TempDir(), "x.id"), aclAllow: []string{"="}}); err == nil {
		t.Error("malformed ACL spec accepted")
	}
}

func TestStartServerRejectsDurabilityFlagsWithoutDataDir(t *testing.T) {
	if _, err := startServer(config{addr: "127.0.0.1:0", fsync: "off"}); err == nil {
		t.Error("-fsync without -data-dir accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", snapshotEvery: 16}); err == nil {
		t.Error("-snapshot-every without -data-dir accepted")
	}
	if _, err := startServer(config{addr: "127.0.0.1:0", dataDir: t.TempDir(), fsync: "sometimes"}); err == nil {
		t.Error("unknown fsync policy accepted")
	}
}

// TestKillRestartServesPreCrashState is the daemon-level acceptance
// scenario: a durable vsrd killed without ceremony and restarted over
// the same -data-dir serves every acknowledged registration, and its
// sequence numbers continue where they left off.
func TestKillRestartServesPreCrashState(t *testing.T) {
	dir := t.TempDir()
	cfg := config{addr: "127.0.0.1:0", dataDir: dir, fsync: "off"}
	s, err := startServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := vsr.New(s.URL())
	for _, id := range []string{"jini:laserdisc-1", "havi:dvcam-1", "upnp:tv-1"} {
		desc := service.Description{
			ID: id, Name: id, Middleware: "jini",
			Interface: service.Interface{Name: "Svc", Operations: []service.Operation{
				{Name: "Ping", Output: service.KindVoid},
			}},
		}
		if _, err := c.Register(ctx, desc, "http://gw/services/"+id); err != nil {
			t.Fatal(err)
		}
	}
	preSeq := s.Registry().Seq()
	if d := s.Registry().Durability(); !d.Enabled || d.Appends == 0 {
		t.Fatalf("durability not armed: %+v", d)
	}

	// Kill: close the WAL fd with no sync, no marker, no shutdown event.
	s.Registry().CrashClose()
	s.Close()

	// Restart over the same directory.
	s2, err := startServer(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer s2.Shutdown()
	rec := s2.Registry().Recovery()
	if rec.CleanShutdown {
		t.Fatalf("kill -9 recorded as clean shutdown: %+v", rec)
	}
	if s2.Registry().Seq() < preSeq {
		t.Fatalf("seq regressed across restart: %d < %d", s2.Registry().Seq(), preSeq)
	}
	c2 := vsr.New(s2.URL())
	for _, id := range []string{"jini:laserdisc-1", "havi:dvcam-1", "upnp:tv-1"} {
		if _, err := c2.Lookup(ctx, id); err != nil {
			t.Errorf("pre-crash registration %s lost: %v", id, err)
		}
	}
	// New registrations keep the sequence monotone.
	desc := service.Description{
		ID: "x10:lamp-1", Name: "lamp", Middleware: "x10",
		Interface: service.Interface{Name: "Lamp", Operations: []service.Operation{
			{Name: "On", Output: service.KindVoid},
		}},
	}
	if _, err := c2.Register(ctx, desc, "http://gw/services/x10:lamp-1"); err != nil {
		t.Fatal(err)
	}
	if s2.Registry().Seq() <= preSeq {
		t.Fatalf("post-restart registration did not advance seq past %d", preSeq)
	}

	// A graceful stop marks the WAL; the third boot skips recovery.
	s2.Shutdown()
	s3, err := startServer(cfg)
	if err != nil {
		t.Fatalf("boot after graceful stop: %v", err)
	}
	defer s3.Shutdown()
	rec = s3.Registry().Recovery()
	if !rec.CleanShutdown || rec.TornTail {
		t.Fatalf("graceful stop not detected on next boot: %+v", rec)
	}
	if _, err := vsr.New(s3.URL()).Lookup(ctx, "x10:lamp-1"); err != nil {
		t.Errorf("registration lost across graceful restart: %v", err)
	}
}

func TestStartServerPeersTwoRepositories(t *testing.T) {
	a, err := startServer(config{addr: "127.0.0.1:0", home: "home-a", deny: []string{"x10:*"}})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := startServer(config{addr: "127.0.0.1:0", home: "home-b", peers: []string{a.PeerURL()}})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	desc := service.Description{
		ID: "jini:laserdisc-1", Name: "laserdisc", Middleware: "jini",
		Interface: service.Interface{Name: "Laserdisc", Operations: []service.Operation{
			{Name: "Play", Output: service.KindVoid},
		}},
	}
	va := vsr.New(a.URL())
	if _, err := va.Register(ctx, desc, "http://gw-a/services/jini:laserdisc-1"); err != nil {
		t.Fatal(err)
	}
	denied := desc
	denied.ID, denied.Name = "x10:lamp-1", "lamp"
	if _, err := va.Register(ctx, denied, "http://gw-a/services/x10:lamp-1"); err != nil {
		t.Fatal(err)
	}

	vb := vsr.New(b.URL())
	for {
		if _, err := vb.Lookup(ctx, "home-a/jini:laserdisc-1"); err == nil {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatal("replication to vsrd peer never happened")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if _, err := vb.Lookup(ctx, "home-a/x10:lamp-1"); err == nil {
		t.Error("export-denied service replicated")
	}
}

// freeAddr reserves an ephemeral loopback address for a server that must
// be named in its own replica-set flags before it starts.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestArmedReplicaSetElectsOneLeader: two members of one armed home's
// replica set, the second configured as the first's replica. The
// replica's status probes, state transfer and feed must ride the
// server's Dialer, signed as the home: unsigned, the leader's private
// /uddi refuses them, the attach fails, and the replica elects itself a
// second leader.
func TestArmedReplicaSetElectsOneLeader(t *testing.T) {
	idFile := filepath.Join(t.TempDir(), "h.id")
	addrA, addrB := freeAddr(t), freeAddr(t)
	set := []string{addrA, addrB}
	a, err := startServer(config{addr: addrA, home: "h", idFile: idFile, binary: true, replicaSet: set})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := startServer(config{addr: addrB, home: "h", idFile: idFile, binary: true, replicaSet: set, replicaOf: addrA})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.replicationWarn != nil {
		t.Errorf("replica's first attach: %v", b.replicationWarn)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A write on the leader must reach the replica through the feed.
	v := vsr.New(a.URL())
	v.SetDialer(a.dialer)
	desc := service.Description{
		ID: "jini:laserdisc-1", Name: "laserdisc", Middleware: "jini",
		Interface: service.Interface{Name: "Laserdisc", Operations: []service.Operation{
			{Name: "Play", Output: service.KindVoid},
		}},
	}
	if _, err := v.Register(ctx, desc, "http://gw-a/services/jini:laserdisc-1"); err != nil {
		t.Fatal(err)
	}
	want := a.Registry().Seq()
	for b.node.Status().Seq < want {
		select {
		case <-ctx.Done():
			t.Fatalf("replica never caught up: %+v", b.node.Status())
		case <-time.After(10 * time.Millisecond):
		}
	}
	st := b.node.Status()
	if st.Role != "replica" || st.Leader != a.URL() || !st.Attached {
		t.Errorf("replica status %+v, want an attached replica of %s", st, a.URL())
	}
	leaders := 0
	for _, s := range []*server{a, b} {
		if s.node.IsLeader() {
			leaders++
		}
	}
	if leaders != 1 || !a.node.IsLeader() {
		t.Errorf("%d leaders (A leader: %v), want exactly A", leaders, a.node.IsLeader())
	}
	if _, ok := b.dialer.WireStatsSnapshot()[addrA]; !ok {
		t.Errorf("replica links to %s missing from its wire stats: %v", addrA, b.dialer.WireStatsSnapshot())
	}
}

package core

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/identity"
	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
	"homeconnect/internal/uddi"
)

// streamDesc is a minimal federation service description.
func streamDesc(id string) service.Description {
	return service.Description{
		ID: id, Name: id, Middleware: "test",
		Interface: service.Interface{Name: "I", Operations: []service.Operation{
			{Name: "Where", Output: service.KindString},
		}},
	}
}

// addNetworks adds n gateways named net-0 … net-(n-1).
func addNetworks(t *testing.T, fed *Federation, n int) []*vsg.VSG {
	t.Helper()
	gws := make([]*vsg.VSG, n)
	for i := range gws {
		nw, err := fed.AddNetwork(fmt.Sprintf("net-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		gws[i] = nw.Gateway()
	}
	return gws
}

// waitAll parks until cond holds for every gateway's Health.
func waitAll(t *testing.T, gws []*vsg.VSG, what string, cond func(vsg.Health) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, gw := range gws {
		for !cond(gw.Health()) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %s never held: %+v", gw.Name(), what, gw.Health())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func watchActive(h vsg.Health) bool { return h.WatchActive }

// TestFederationServesOneWatchStream: a five-network federation holds one
// repository watch, not five. Each write ends one long-poll round of the
// shared stream; with a watch per gateway the registry would serve five.
func TestFederationServesOneWatchStream(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	gws := addNetworks(t, fed, 5)
	waitAll(t, gws, "watch active", watchActive)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v := vsr.New(fed.VSRURL())
	const writes = 20
	for i := 0; i < writes; i++ {
		before := make([]uint64, len(gws))
		for j, gw := range gws {
			before[j] = gw.Health().WatchDeltas
		}
		id := fmt.Sprintf("test:svc-%d", i)
		if _, err := v.Register(ctx, streamDesc(id), "http://192.0.2.1/services/"+id); err != nil {
			t.Fatal(err)
		}
		for j, gw := range gws {
			waitAll(t, []*vsg.VSG{gw}, "delta for "+id, func(h vsg.Health) bool { return h.WatchDeltas > before[j] })
		}
	}
	// One probe, one round per write, and the round parked now.
	got := fed.VSRServer().Registry().Watches()
	if got > writes+2 {
		t.Fatalf("registry served %d watch requests for %d writes to 5 gateways, want ≤ %d", got, writes, writes+2)
	}
	if rep := fed.healthReport(); rep.Registry.Watches != got {
		t.Errorf("/health reports %d watches, registry %d", rep.Registry.Watches, got)
	}
}

// TestChangeStreamLateNetworkJoinsLive: a network added once the stream is
// up reports an active watch the moment AddNetwork returns, with no
// long-poll wait, and its cache is push-invalidated from then on.
func TestChangeStreamLateNetworkJoinsLive(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	first := addNetworks(t, fed, 1)
	waitAll(t, first, "watch active", watchActive)

	n, err := fed.AddNetwork("late")
	if err != nil {
		t.Fatal(err)
	}
	late := n.Gateway()
	if !late.Health().WatchActive {
		t.Fatalf("late network's watch not active on join: %+v", late.Health())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	late.SetCacheTTL(time.Hour) // only push invalidation can replace the entry
	v := vsr.New(fed.VSRURL())
	const id = "test:mobile"
	if _, err := v.Register(ctx, streamDesc(id), "http://192.0.2.1/services/"+id); err != nil {
		t.Fatal(err)
	}
	if _, err := late.Resolve(ctx, id); err != nil {
		t.Fatal(err)
	}
	const moved = "http://192.0.2.2/services/" + id
	if _, err := v.Register(ctx, streamDesc(id), moved); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := late.Resolve(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Endpoint == moved {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("late network still resolves %q", r.Endpoint)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if h := late.Health(); h.CacheInvalidations == 0 {
		t.Errorf("late network's cache never push-invalidated: %+v", h)
	}
}

// TestSharedDeltaKeepsCachesPrivate: one delta rewrites the cached entry
// of every gateway that resolved the service, and no gateway's cached
// description shares its context map with another's.
func TestSharedDeltaKeepsCachesPrivate(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	gws := addNetworks(t, fed, 2)
	waitAll(t, gws, "watch active", watchActive)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v := vsr.New(fed.VSRURL())
	const id = "test:shared"
	if _, err := v.Register(ctx, streamDesc(id), "http://192.0.2.1/services/"+id); err != nil {
		t.Fatal(err)
	}
	for _, gw := range gws {
		gw.SetCacheTTL(time.Hour)
		if _, err := gw.Resolve(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	desc := streamDesc(id)
	desc.Context = map[string]string{"room": "hall"}
	if _, err := v.Register(ctx, desc, "http://192.0.2.2/services/"+id); err != nil {
		t.Fatal(err)
	}
	waitAll(t, gws, "cache rewritten", func(h vsg.Health) bool { return h.CacheInvalidations > 0 })

	r0, err := gws[0].Resolve(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	r0.Desc.Context["room"] = "attic"
	r1, err := gws[1].Resolve(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Desc.Context["room"]; got != "hall" {
		t.Fatalf("gateway 1 sees room %q after gateway 0's caller edited its copy", got)
	}
}

// TestChangeStreamOutlivesClosedGateway: a gateway closed on its own drops
// out of the fan-out's effects without holding up the others.
func TestChangeStreamOutlivesClosedGateway(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	defer fed.Close()
	gws := addNetworks(t, fed, 3)
	waitAll(t, gws, "watch active", watchActive)
	gws[0].Close()
	closedDeltas := gws[0].Health().WatchDeltas

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v := vsr.New(fed.VSRURL())
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("test:after-close-%d", i)
		if _, err := v.Register(ctx, streamDesc(id), "http://192.0.2.1/services/"+id); err != nil {
			t.Fatal(err)
		}
	}
	waitAll(t, gws[1:], "deltas after a peer gateway closed", func(h vsg.Health) bool { return h.WatchDeltas >= 3 })
	if got := gws[0].Health().WatchDeltas; got != closedDeltas {
		t.Errorf("closed gateway applied %d deltas after Close", got-closedDeltas)
	}
}

// repoFace serves a detached repository's handler on a fixed loopback
// address that the test can take down and bring back, while the registry
// behind it lives on.
type repoFace struct {
	t    *testing.T
	addr string
	srv  *vsr.Server
	hs   *http.Server
}

func newRepoFace(t *testing.T, reg *uddi.Server, auth *identity.Auth) *repoFace {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &repoFace{t: t, addr: ln.Addr().String()}
	r.srv = vsr.NewDetachedServer(r.addr, reg, auth)
	r.serve(ln)
	t.Cleanup(r.down)
	return r
}

func (r *repoFace) serve(ln net.Listener) {
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { _ = r.hs.Serve(ln) }()
}

func (r *repoFace) down() { _ = r.hs.Close() }

func (r *repoFace) up() {
	ln, err := net.Listen("tcp", r.addr)
	if err != nil {
		r.t.Fatal(err)
	}
	r.serve(ln)
}

// newOutageFed builds a five-network federation, audited, over a
// repository face the test controls.
func newOutageFed(t *testing.T, reg *uddi.Server) (*Federation, *repoFace, []*vsg.VSG) {
	auth := identity.NewAuth("")
	face := newRepoFace(t, reg, auth)
	fed, err := assembleFederation(face.srv, "", auth)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fed.Close)
	if err := fed.EnableAudit(audit.Options{}); err != nil {
		t.Fatal(err)
	}
	gws := addNetworks(t, fed, 5)
	waitAll(t, gws, "watch active", watchActive)
	return fed, face, gws
}

// auditCount counts a gateway's audit events of one type.
func auditCount(fed *Federation, gw *vsg.VSG, typ audit.Type) int {
	n := 0
	for _, r := range fed.Audit().Tail(1<<20, typ) {
		if r.Face == "vsg:"+gw.Name() {
			n++
		}
	}
	return n
}

// TestChangeStreamOutageReachesEveryGateway: losing the repository takes
// every gateway down with the cause, and its return brings every one back
// up, each with its own audit trail.
func TestChangeStreamOutageReachesEveryGateway(t *testing.T) {
	fed, face, gws := newOutageFed(t, uddi.NewServer())
	face.down()
	waitAll(t, gws, "watch down with cause", func(h vsg.Health) bool {
		return !h.WatchActive && h.LastWatchError != ""
	})
	face.up()
	waitAll(t, gws, "watch back up", func(h vsg.Health) bool {
		return h.WatchActive && h.LastWatchError == ""
	})
	for _, gw := range gws {
		if down, up := auditCount(fed, gw, audit.WatchDown), auditCount(fed, gw, audit.WatchUp); down != 1 || up != 2 {
			t.Errorf("%s audited %d watch.down and %d watch.up, want 1 and 2", gw.Name(), down, up)
		}
	}
}

// TestChangeStreamOverrunResyncsEveryGateway: when the journal moves past
// the stream's cursor, every gateway flushes its cache once.
func TestChangeStreamOverrunResyncsEveryGateway(t *testing.T) {
	reg := uddi.NewServer()
	reg.SetJournalCapacity(4)
	fed, face, gws := newOutageFed(t, reg)
	before := make([]uint64, len(gws))
	for i, gw := range gws {
		before[i] = gw.Health().WatchResyncs
	}
	// With the face down the stream cannot follow; more writes than the
	// journal holds leave its cursor behind the oldest record.
	face.down()
	waitAll(t, gws, "watch down", func(h vsg.Health) bool { return !h.WatchActive })
	for i := 0; i < 10; i++ {
		e, err := vsr.EntryFor(streamDesc(fmt.Sprintf("test:svc-%d", i)), "http://192.0.2.1/")
		if err != nil {
			t.Fatal(err)
		}
		reg.Save(e, time.Minute)
	}
	face.up()
	for i, gw := range gws {
		waitAll(t, []*vsg.VSG{gw}, "resync", func(h vsg.Health) bool {
			return h.WatchActive && h.WatchResyncs == before[i]+1
		})
		if n := auditCount(fed, gw, audit.WatchResync); n != 1 {
			t.Errorf("%s audited %d watch.resync, want 1", gw.Name(), n)
		}
	}
}

// TestFederationCloseDuringWriteBurst: Close returns while writers hammer
// the repository, and leaves no change-stream goroutine behind.
func TestFederationCloseDuringWriteBurst(t *testing.T) {
	fed, err := NewFederation()
	if err != nil {
		t.Fatal(err)
	}
	gws := addNetworks(t, fed, 5)
	waitAll(t, gws, "watch active", watchActive)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := vsr.New(fed.VSRURL())
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), time.Second)
				id := fmt.Sprintf("test:burst-%d-%d", w, i%50)
				_, _ = v.Register(ctx, streamDesc(id), "http://192.0.2.1/services/"+id)
				cancel()
			}
		}(w)
	}
	// Let the burst reach the gateways before tearing down.
	waitAll(t, gws, "burst deltas", func(h vsg.Health) bool { return h.WatchDeltas >= 20 })

	closed := make(chan struct{})
	go func() {
		fed.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Federation.Close did not return during a write burst")
	}
	close(stop)
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "core.(*changeStream)") && !strings.Contains(stacks, "vsr.(*VSR).watchLoop") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("change stream goroutines outlived Close:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

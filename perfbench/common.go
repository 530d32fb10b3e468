package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/transport"
)

// probeN is how many times each probe runs.
const probeN = 2000

// effects matches asynchronous effects — havi.transport events — to the
// writes that must cause them, in order.
type effects struct {
	mu         sync.Mutex
	pending    []pendingFx
	lat        dist
	wrong      int
	unexpected int
}

type pendingFx struct {
	due  time.Time
	want string
}

// expect registers an effect before the write that causes it is sent,
// since the effect may arrive before the write's reply.
func (e *effects) expect(due time.Time, want string) {
	e.mu.Lock()
	e.pending = append(e.pending, pendingFx{due, want})
	e.mu.Unlock()
}

func (e *effects) deliver(got string, t time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.pending) == 0 {
		e.unexpected++
		return
	}
	p := e.pending[0]
	e.pending = e.pending[1:]
	if p.want != got {
		e.wrong++
		e.lat.fail()
		return
	}
	e.lat.add(us(t.Sub(p.due)))
}

// drain waits up to drainWait for every expected effect, then returns
// the window's latencies and the count of effects that never came or
// came wrong.
func (e *effects) drain(ctx context.Context) (dist, int, error) {
	err := await(ctx, drainWait, func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.pending) == 0
	})
	if err != nil {
		return dist{}, 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	d, missing := e.lat, len(e.pending)+e.wrong
	for range e.pending {
		d.fail()
	}
	e.lat, e.pending, e.wrong = dist{}, nil, 0
	return d, missing, nil
}

func (e *effects) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.unexpected > 0 {
		return fmt.Errorf("%d effects arrived that no write caused", e.unexpected)
	}
	return nil
}

// drainWait bounds how long a window's effects may trail its last op.
const drainWait = 5 * time.Second

// await polls done every millisecond until it holds or d has passed; it
// fails only when ctx ends first.
func await(ctx context.Context, d time.Duration, done func() bool) error {
	deadline := time.Now().Add(d)
	for !done() && time.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// waitFor retries fn until it succeeds or 30s pass.
func waitFor(ctx context.Context, fn func() error) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		err := fn()
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last: %v)", ctx.Err(), err)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// procCounters flattens the driver's and home-1's own counters.
func procCounters(driver procStats, hs homeStats) map[string]float64 {
	c := map[string]float64{}
	for name, p := range map[string]procStats{"driver": driver, "home1": hs.Proc} {
		c["cpu_ns."+name] = float64(p.CPUNS)
		c["maxrss_kb."+name] = float64(p.MaxRSSKB)
		c["alloc."+name] = float64(p.Alloc)
		c["gc."+name] = float64(p.GC)
	}
	c["home1.seq"] = float64(hs.Seq)
	c["home1.invalidations"] = float64(hs.Invalidations)
	c["home1.wal_appends"] = float64(hs.Appends)
	c["home1.wal_bytes"] = float64(hs.WALBytes)
	c["home1.fsyncs"] = float64(hs.Fsyncs)
	c["home1.snapshots"] = float64(hs.Snapshots)
	c["home1.audit_seq"] = float64(hs.AuditSeq)
	c["home1.watched"] = float64(hs.Watched)
	c["home1.foreign"] = float64(hs.Foreign)
	return c
}

// addWire adds the summed wire counters of every dialed authority.
func addWire(c map[string]float64, ws ...transport.WireStats) {
	for _, s := range ws {
		for _, l := range s {
			c["wire.handshakes"] += float64(l.Handshakes)
			c["wire.rekeys"] += float64(l.Rekeys)
			c["wire.downgrades"] += float64(l.Downgrades)
		}
	}
}

// wireBinary checks that every framework link negotiated the binary
// wire and never fell back to SOAP.
func wireBinary(ws ...transport.WireStats) error {
	n := 0
	for _, s := range ws {
		for auth, l := range s {
			n++
			if l.Protocol != "binary" || l.Downgrades != 0 {
				return fmt.Errorf("link %s rides %s with %d downgrades", auth, l.Protocol, l.Downgrades)
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("no framework links dialed")
	}
	return nil
}

// identityProbe times one full session handshake between the run's
// two homes, and the per-call authorization home-1 makes for home-2.
// Runs without identities (the open home) use generated ones.
func identityProbe(res map[string]float64, ids [2]*identity.Identity) error {
	for i, name := range []string{"home-1", "home-2"} {
		if ids[i] == nil {
			id, err := identity.Generate(name)
			if err != nil {
				return err
			}
			ids[i] = id
		}
	}
	auths := [2]*identity.Auth{}
	for i := range auths {
		a := identity.NewAuth(ids[i].Home())
		if err := a.SetIdentity(ids[i]); err != nil {
			return err
		}
		if err := a.Trust(ids[1-i].Home(), ids[1-i].PublicKey()); err != nil {
			return err
		}
		auths[i] = a
	}
	hs, err := timeN(200, func(int) error {
		c, err := auths[1].NewSessionClient()
		if err != nil {
			return err
		}
		accept, _, err := auths[0].AcceptSession(c.Hello())
		if err != nil {
			return err
		}
		_, err = c.Finish(accept)
		return err
	})
	if err != nil {
		return fmt.Errorf("handshake: %w", err)
	}
	services := []string{"x10:lamp-1", "havi:vcr-vcr1", "havi:tv-tuner"}
	acl, err := timeN(probeN, func(i int) error { return auths[0].Authorize("home-2", services[i%len(services)]) })
	if err != nil {
		return fmt.Errorf("authorize: %w", err)
	}
	res["identity.handshake_us"], res["identity.acl_us"] = median(hs), median(acl)
	return nil
}

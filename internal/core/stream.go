package core

import (
	"context"
	"fmt"
	"sync"

	"homeconnect/internal/core/vsg"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/transport"
)

// changeStream is a home's one repository change stream (DESIGN.md §9):
// the federation watches its repository once and hands every delta, in
// stream order, to each gateway it owns, instead of each gateway
// long-polling the same journal for itself. It rides a repository client
// of its own over the home's Dialer — the one the gateways' clients
// take, binary negotiation included.
type changeStream struct {
	cancel context.CancelFunc
	done   chan struct{}

	// mu is the fan-out lock. It orders joins against deliveries: a
	// gateway that joins sees the stream's current state first, then
	// every later delta, with no gap and no reordering.
	mu  sync.Mutex
	gws []*vsg.VSG
	// up and downErr are the stream state a joining gateway must learn:
	// up after Up or Resync, down with its cause after Down, neither
	// before the first round trip has answered.
	up      bool
	downErr error
}

// startChangeStream opens the stream on the repository at url over d,
// which stays its owner's to close.
func startChangeStream(url string, d *transport.Dialer) (*changeStream, error) {
	v := vsr.New(url)
	v.SetDialer(d)
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := v.Watch(ctx, 0)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("core: repository change stream: %w", err)
	}
	s := &changeStream{cancel: cancel, done: make(chan struct{})}
	go s.run(ch)
	return s, nil
}

// run fans each delta out until the watch closes its channel. Applying
// a delta only updates a gateway's in-memory state, so holding the
// fan-out lock across the loop never waits on the network, and a closed
// gateway returns at once.
func (s *changeStream) run(ch <-chan vsr.Delta) {
	defer close(s.done)
	for d := range ch {
		s.mu.Lock()
		switch d.Op {
		case vsr.DeltaUp, vsr.DeltaResync:
			s.up, s.downErr = true, nil
		case vsr.DeltaDown:
			s.up, s.downErr = false, d.Err
		}
		for _, gw := range s.gws {
			gw.ApplyDelta(d)
		}
		s.mu.Unlock()
	}
}

// join adds a gateway to the fan-out. A stream that is already up hands
// it a DeltaUp (a stream that is down, the Down with its cause) under the
// fan-out lock, so the gateway reports the stream's state at once and
// misses no later delta.
func (s *changeStream) join(gw *vsg.VSG) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.up:
		gw.ApplyDelta(vsr.Delta{Op: vsr.DeltaUp})
	case s.downErr != nil:
		gw.ApplyDelta(vsr.Delta{Op: vsr.DeltaDown, Err: s.downErr})
	}
	s.gws = append(s.gws, gw)
}

// close stops the watch and returns once the fan-out has exited.
func (s *changeStream) close() {
	s.cancel()
	<-s.done
}

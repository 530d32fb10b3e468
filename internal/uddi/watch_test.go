package uddi

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded test clock: the janitor goroutine reads it
// concurrently with the test advancing it.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock(t time.Time) *fakeClock { return &fakeClock{t: t} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// TestJournalOrderingAndOps: every mutation appears in the journal in
// sequence order with the right operation.
func TestJournalOrderingAndOps(t *testing.T) {
	s := NewServer()
	defer s.Close()

	e := lampEntry()
	key := s.Save(e, time.Minute) // add
	e.Key = key
	e.Description = "updated"
	s.Save(e, time.Minute) // update
	s.Delete(key)          // delete
	key2 := s.Save(lampEntry(), time.Minute)

	changes, next, resync := s.Changes(0)
	if resync {
		t.Fatal("fresh watcher told to resync")
	}
	if next != 4 {
		t.Errorf("next = %d, want 4", next)
	}
	wantOps := []ChangeOp{OpAdd, OpUpdate, OpDelete, OpAdd}
	if len(changes) != len(wantOps) {
		t.Fatalf("changes = %d, want %d: %+v", len(changes), len(wantOps), changes)
	}
	for i, c := range changes {
		if c.Seq != uint64(i+1) {
			t.Errorf("change %d seq = %d, want %d", i, c.Seq, i+1)
		}
		if c.Op != wantOps[i] {
			t.Errorf("change %d op = %s, want %s", i, c.Op, wantOps[i])
		}
	}
	// Adds and updates carry the payload; deletes only identity.
	if changes[1].Entry.Description != "updated" {
		t.Errorf("update change entry = %+v", changes[1].Entry)
	}
	if changes[2].Entry.Key != key || changes[2].Entry.Name != "jini:lamp-1" {
		t.Errorf("delete change identity = %+v", changes[2].Entry)
	}
	if changes[2].Entry.WSDL != "" || changes[2].Entry.AccessPoint != "" {
		t.Errorf("delete change carries payload: %+v", changes[2].Entry)
	}
	if changes[3].Entry.Key != key2 {
		t.Errorf("re-add change key = %q, want %q", changes[3].Entry.Key, key2)
	}
}

// TestJournalResumeFromSince: a watcher resuming mid-stream sees only
// later changes.
func TestJournalResumeFromSince(t *testing.T) {
	s := NewServer()
	defer s.Close()
	for i := 0; i < 5; i++ {
		e := lampEntry()
		e.Name = "svc-" + string(rune('a'+i))
		s.Save(e, time.Minute)
	}
	changes, next, resync := s.Changes(3)
	if resync {
		t.Fatal("in-window resume told to resync")
	}
	if next != 5 || len(changes) != 2 {
		t.Fatalf("resume from 3: %d changes, next %d", len(changes), next)
	}
	if changes[0].Seq != 4 || changes[1].Seq != 5 {
		t.Errorf("resumed seqs = %d, %d", changes[0].Seq, changes[1].Seq)
	}
	// Resume exactly at the head: nothing new, no resync.
	if chs, _, rs := s.Changes(5); rs || len(chs) != 0 {
		t.Errorf("head resume = %d changes, resync %v", len(chs), rs)
	}
}

// TestJournalResync: watchers behind the journal window, or ahead of a
// restarted registry, are told to resync rather than silently missing
// changes.
func TestJournalResync(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.SetJournalCapacity(3)
	for i := 0; i < 6; i++ {
		e := lampEntry()
		e.Name = "svc-" + string(rune('a'+i))
		s.Save(e, time.Minute)
	}
	// Journal holds (3, 6]; since=1 fell out of the window.
	if _, next, resync := s.Changes(1); !resync || next != 6 {
		t.Errorf("behind-window watcher: resync=%v next=%d", resync, next)
	}
	// since=3 is exactly the window edge: still serviceable.
	if chs, _, resync := s.Changes(3); resync || len(chs) != 3 {
		t.Errorf("window-edge watcher: resync=%v changes=%d", resync, len(chs))
	}
	// A cursor from a previous registry incarnation (ahead of seq).
	if _, next, resync := s.Changes(99); !resync || next != 6 {
		t.Errorf("ahead watcher: resync=%v next=%d", resync, next)
	}
}

// TestWatchLongPollWakes: a parked watcher returns as soon as a change is
// journaled, not after its timeout.
func TestWatchLongPollWakes(t *testing.T) {
	s := NewServer()
	defer s.Close()
	type result struct {
		changes []Change
		err     error
	}
	done := make(chan result, 1)
	go func() {
		chs, _, _, err := s.WatchChanges(context.Background(), 0, 10*time.Second)
		done <- result{chs, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	start := time.Now()
	s.Save(lampEntry(), time.Minute)
	select {
	case r := <-done:
		if r.err != nil || len(r.changes) != 1 {
			t.Fatalf("woken poll = %+v", r)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("wake took %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke")
	}
}

// TestWatchZeroTimeout: an immediate probe returns the current cursor
// without blocking — the liveness check watchers open with.
func TestWatchZeroTimeout(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.Save(lampEntry(), time.Minute)
	start := time.Now()
	chs, next, resync, err := s.WatchChanges(context.Background(), 1, 0)
	if err != nil || resync || len(chs) != 0 || next != 1 {
		t.Errorf("probe = %d changes, next %d, resync %v, err %v", len(chs), next, resync, err)
	}
	if time.Since(start) > time.Second {
		t.Error("zero-timeout probe blocked")
	}
}

// TestExpiryJournaled: the janitor turns TTL lapses into journal records,
// so watchers learn about silently dead services.
func TestExpiryJournaled(t *testing.T) {
	s := NewServer()
	defer s.Close()
	clk := newFakeClock(time.Unix(1000, 0))
	s.SetClock(clk.now)
	s.Save(lampEntry(), 10*time.Second)
	clk.advance(11 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		changes, _, _ := s.Changes(1) // skip the add
		if len(changes) == 1 && changes[0].Op == OpExpire {
			if changes[0].Entry.Name != "jini:lamp-1" {
				t.Errorf("expire change = %+v", changes[0].Entry)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("expiry never journaled; changes = %+v", changes)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestClientWatchRoundTrip: the watch long-poll over HTTP, including
// resume and payload fidelity.
func TestClientWatchRoundTrip(t *testing.T) {
	s := NewServer()
	defer s.Close()
	srv := httptest.NewServer(s.Handler(Face{}))
	defer srv.Close()
	c := &Client{URL: srv.URL}
	ctx := context.Background()

	key, err := c.Save(ctx, lampEntry(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	changes, next, resync, err := c.Watch(ctx, 0, 0)
	if err != nil || resync {
		t.Fatalf("watch: %v resync=%v", err, resync)
	}
	if len(changes) != 1 || changes[0].Op != OpAdd || changes[0].Entry.Key != key {
		t.Fatalf("watch changes = %+v", changes)
	}
	if changes[0].Entry.WSDL != lampEntry().WSDL || changes[0].Entry.Categories["room"] != "living" {
		t.Errorf("change payload lost: %+v", changes[0].Entry)
	}

	// A parked HTTP poll wakes on the next change.
	type result struct {
		changes []Change
		err     error
	}
	done := make(chan result, 1)
	go func() {
		chs, _, _, err := c.Watch(ctx, next, 10*time.Second)
		done <- result{chs, err}
	}()
	time.Sleep(50 * time.Millisecond)
	if err := c.Delete(ctx, key); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || len(r.changes) != 1 || r.changes[0].Op != OpDelete {
			t.Fatalf("woken watch = %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HTTP long poll never woke")
	}
}

// TestClientSaveAll: one round trip registers many entries, keys come
// back in order, and the journal records each.
func TestClientSaveAll(t *testing.T) {
	s := NewServer()
	defer s.Close()
	srv := httptest.NewServer(s.Handler(Face{}))
	defer srv.Close()
	c := &Client{URL: srv.URL}
	ctx := context.Background()

	var entries []Entry
	for i := 0; i < 4; i++ {
		e := lampEntry()
		e.Name = "svc-" + string(rune('a'+i))
		e.Key = "uuid:svc-" + e.Name
		entries = append(entries, e)
	}
	keys, err := c.SaveAll(ctx, entries, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("keys = %v", keys)
	}
	for i, k := range keys {
		if k != entries[i].Key {
			t.Errorf("key %d = %q, want %q", i, k, entries[i].Key)
		}
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	changes, _, _ := s.Changes(0)
	if len(changes) != 4 {
		t.Errorf("journal has %d changes, want 4", len(changes))
	}
	// Empty batch is a no-op, not a request.
	if keys, err := c.SaveAll(ctx, nil, 0); err != nil || keys != nil {
		t.Errorf("empty SaveAll = %v, %v", keys, err)
	}
}

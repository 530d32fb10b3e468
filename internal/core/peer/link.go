// The import side of a Peering: one Link per remote home, consuming the
// remote repository's change watch and mirroring admitted entries into
// the local registry under home-scoped IDs.
package peer

import (
	"context"
	"sync"
	"time"

	"homeconnect/internal/core/audit"
	"homeconnect/internal/core/vsr"
	"homeconnect/internal/service"
)

// Status is one link's replication condition — the peering counterpart of
// vsg.Health. Connected false is degraded mode: entries already imported
// keep serving until their TTL lapses, after which the remote home's
// services vanish locally until the link recovers and resynchronizes.
type Status struct {
	// URL is the remote export endpoint this link replicates from.
	URL string `json:"url"`
	// RemoteHome is the peer's home name as stamped on its exports;
	// empty until the first entry has been imported.
	RemoteHome string `json:"remote_home,omitempty"`
	// Connected reports a live watch stream against the peer.
	Connected bool `json:"connected"`
	// Authenticated reports that the live stream is mutually
	// authenticated: this home's identity signed every request and the
	// peer's response signatures verified against the trust store. False
	// while Connected means the homes run in open mode (no identity).
	Authenticated bool `json:"authenticated"`
	// LastError is the failure that broke the stream, cleared on
	// recovery. Authentication refusals land here too — a peer that does
	// not trust this home reports uddi: E_authTokenRequired, a peer this
	// home does not trust fails response verification.
	LastError string `json:"last_error,omitempty"`
	// Cursor is the replication cursor: the highest remote journal
	// sequence number applied locally.
	Cursor uint64 `json:"cursor"`
	// CursorEpoch is the replication epoch the cursor was handed out
	// under (0 until the remote states one). Across a remote leader
	// failover, presenting it lets the promoted replica replay shared
	// history for this cursor instead of demanding a full resync.
	CursorEpoch uint64 `json:"cursor_epoch,omitempty"`
	// Imported counts remote entries currently registered locally.
	Imported int `json:"imported"`
	// Applied counts change deltas applied since the link started.
	Applied uint64 `json:"applied"`
	// LastSync is the time of the last successful full reconciliation
	// (performed on first contact, on resync, and periodically as
	// anti-entropy).
	LastSync time.Time `json:"last_sync"`
	// Resyncs counts the times the remote declared our cursor
	// unserviceable (journal overrun, or a non-durable peer restarting
	// from sequence zero) and forced a full-snapshot resync. A durable
	// peer restarting with its WAL intact does not bump this: the cursor
	// resumes where it left off.
	Resyncs uint64 `json:"resyncs"`
	// Proto is the wire protocol the link's traffic currently rides:
	// "binary" once the peer has negotiated the session-keyed fast path,
	// "soap" otherwise (never negotiated, refused, or downgraded).
	Proto string `json:"proto,omitempty"`
}

// Link replicates one remote home's registry into the local one.
type Link struct {
	p      *Peering
	url    string
	remote *vsr.VSR
	cancel context.CancelFunc
	done   chan struct{}
	// manual links (PeerManual) have no run goroutine; the owner drives
	// them with Pull and Reconcile.
	manual bool

	mu sync.Mutex
	st Status
	// stopped marks a link the peering has detached. Replication calls
	// arriving afterwards — an anti-entropy refresh racing an Unpeer, a
	// simulation event scheduled before the unpeer landed — must not
	// write into the registry the withdrawal just cleaned.
	stopped bool
	// imported maps the remote-local service ID to the local registry key
	// of its scoped copy, so delete/expire deltas — which carry only the
	// remote ID — find what to withdraw.
	imported map[string]string
}

func newLink(p *Peering, urls []string) *Link {
	url := urls[0]
	remote := vsr.NewSet(urls...)
	// Every wire op the link issues — watch rounds, snapshot reconciles —
	// rides the home's dialer: the binary fast path once the peer has
	// negotiated a session, signed SOAP/HTTP otherwise. In open mode the
	// credentials are inert and this degrades to the plain underlying
	// transport (shared TCP, or an injected MemNet).
	remote.SetDialer(p.dialer)
	return &Link{
		p:        p,
		url:      url,
		remote:   remote,
		done:     make(chan struct{}),
		st:       Status{URL: url},
		imported: make(map[string]string),
	}
}

// Status returns a snapshot of the link's condition.
func (l *Link) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := l.st
	st.Imported = len(l.imported)
	st.Proto = l.p.dialer.ProtocolFor(l.url)
	if st.Proto == "" && st.Connected {
		st.Proto = "soap"
	}
	return st
}

func (l *Link) start() {
	ctx, cancel := context.WithCancel(context.Background())
	l.cancel = cancel
	go l.run(ctx)
}

// stop halts the link; withdraw additionally deletes everything it
// imported (Unpeer wants the registry clean, Close leaves entries to
// their TTL).
func (l *Link) stop(withdraw bool) {
	if l.cancel != nil {
		l.cancel()
	}
	<-l.done
	l.mu.Lock()
	l.stopped = true
	if !withdraw {
		l.mu.Unlock()
		return
	}
	keys := make([]string, 0, len(l.imported))
	for _, key := range l.imported {
		keys = append(keys, key)
	}
	l.imported = make(map[string]string)
	l.mu.Unlock()
	for _, key := range keys {
		l.p.reg.Delete(key)
	}
}

// run consumes the remote watch stream. vsr.Watch supplies the stream
// lifecycle — Up on (re)connect, Down with the cause on failure, Resync
// when the remote journal no longer covers our cursor — and this loop
// folds those into replication: full reconciliation on Up/Resync,
// incremental application otherwise. A periodic reconcile (anti-entropy)
// refreshes imported TTLs even when the remote journal is quiet, and
// repairs any divergence without waiting for a resync.
func (l *Link) run(ctx context.Context) {
	defer close(l.done)
	ch, err := l.remote.Watch(ctx, 0)
	if err != nil {
		l.mu.Lock()
		l.st.LastError = err.Error()
		l.mu.Unlock()
		return
	}
	refresh := l.p.clock.NewTimer(l.refreshInterval())
	defer refresh.Stop()
	for {
		select {
		case <-ctx.Done():
			// Outlast the watch goroutine, so its last round is off the
			// wire — and its link back in the home's pool — before stop
			// returns and the owner closes the Dialer.
			for range ch {
			}
			return
		case d, ok := <-ch:
			if !ok {
				return
			}
			l.apply(ctx, d)
		case <-refresh.C():
			l.mu.Lock()
			up := l.st.Connected
			l.mu.Unlock()
			if up {
				l.reconcile(ctx)
			}
			// Re-arm from the current TTL so a SetImportTTL after Peer
			// keeps refresh cadence and entry lifetime coherent.
			refresh.Reset(l.refreshInterval())
		}
	}
}

// refreshInterval is the anti-entropy cadence: imported entries must be
// re-saved well inside their TTL, mirroring the gateways' TTL/3 refresh.
func (l *Link) refreshInterval() time.Duration {
	interval := l.p.ImportTTL() / 3
	if interval < 100*time.Millisecond {
		interval = 100 * time.Millisecond
	}
	return interval
}

// apply folds one watch delta into the local registry.
func (l *Link) apply(ctx context.Context, d vsr.Delta) {
	switch d.Op {
	case vsr.DeltaUp:
		l.mu.Lock()
		wasUp := l.st.Connected
		remote := l.st.RemoteHome
		first := l.st.LastSync.IsZero()
		l.st.Connected = true
		l.st.Authenticated = l.p.auth.Enabled()
		l.st.LastError = ""
		l.mu.Unlock()
		if !wasUp {
			detail := "open mode"
			if l.p.auth.Enabled() {
				detail = "mutually authenticated"
			}
			l.p.record(audit.Event{Type: audit.PeerConnect, Caller: remote,
				Detail: l.url + ": " + detail})
		}
		// Full reconciliation only on first contact. A *re*connect resumes
		// incrementally from the cursor: the watch stream replays the
		// missed span, and a remote that can no longer serve it says so
		// with DeltaResync. That is what makes a durable peer's restart
		// invisible here — no snapshot storm, just the journal tail.
		if first {
			l.reconcile(ctx)
		}
	case vsr.DeltaDown:
		l.mu.Lock()
		wasUp := l.st.Connected
		remote := l.st.RemoteHome
		l.st.Connected = false
		l.st.Authenticated = false
		if d.Err != nil {
			l.st.LastError = d.Err.Error()
		}
		l.mu.Unlock()
		if wasUp {
			detail := l.url
			if d.Err != nil {
				detail += ": " + d.Err.Error()
			}
			l.p.record(audit.Event{Type: audit.PeerDisconnect, Caller: remote, Detail: detail})
		}
	case vsr.DeltaResync:
		l.mu.Lock()
		l.st.Resyncs++
		l.mu.Unlock()
		l.reconcile(ctx)
		l.mu.Lock()
		if d.Seq > l.st.Cursor {
			l.st.Cursor = d.Seq
		}
		l.mu.Unlock()
	case vsr.DeltaAdd, vsr.DeltaUpdate:
		if l.staleDelta(d.Seq) {
			return
		}
		l.upsert(d.Remote)
		l.mu.Lock()
		l.st.Cursor = d.Seq
		l.st.Applied++
		l.mu.Unlock()
	case vsr.DeltaDelete, vsr.DeltaExpire:
		if l.staleDelta(d.Seq) {
			return
		}
		l.drop(d.ServiceID)
		l.mu.Lock()
		l.st.Cursor = d.Seq
		l.st.Applied++
		l.mu.Unlock()
	}
}

// staleDelta reports whether a change delta is already covered by the
// cursor. Watch deltas queued before a reconcile can arrive after it:
// the snapshot at sequence S subsumes every change ≤ S, so replaying one
// would both regress the cursor and corrupt state — a stale delete
// dropping an entry the snapshot just re-imported.
func (l *Link) staleDelta(seq uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return seq <= l.st.Cursor
}

// upsert registers (or refreshes) the scoped copy of one remote service.
func (l *Link) upsert(r vsr.Remote) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	origin := r.Desc.Context[service.CtxHome]
	switch {
	case origin == "":
		// Unstamped: the endpoint is not a peering export face (or
		// predates one). Without a scope the entry cannot be filed.
		return
	case origin == l.p.home:
		// Our own name coming back at us — a peering loop or a
		// misconfigured remote. Importing it would shadow local services.
		return
	case r.Desc.Context[service.CtxPeerOrigin] != "":
		// A transit entry the remote should not have exported; the
		// one-hop rule holds on both sides.
		return
	}
	if _, _, scoped := service.SplitScopedID(r.Desc.ID); scoped {
		return
	}
	localID := r.Desc.ID
	desc := r.Desc.Clone()
	desc.ID = service.ScopeID(origin, localID)
	desc.Context[service.CtxPeerOrigin] = origin
	entry, err := vsr.EntryFor(desc, r.Endpoint)
	if err != nil {
		return
	}
	l.p.reg.Save(entry, l.p.ImportTTL())
	l.mu.Lock()
	if l.st.RemoteHome == "" {
		l.st.RemoteHome = origin
	}
	l.imported[localID] = entry.Key
	l.mu.Unlock()
}

// drop withdraws the scoped copy of one remote service.
func (l *Link) drop(remoteID string) {
	l.mu.Lock()
	key, ok := l.imported[remoteID]
	if ok {
		delete(l.imported, remoteID)
	}
	l.mu.Unlock()
	if ok {
		l.p.reg.Delete(key)
	}
}

// reconcile replaces incremental state with ground truth: a full snapshot
// of the remote export face, upserted entry by entry, followed by the
// withdrawal of anything imported earlier that the snapshot no longer
// contains. It runs on connect (the journal may predate us), on resync
// (the journal skipped past us), and periodically as anti-entropy. A
// failed snapshot changes nothing: imported entries keep serving until
// TTL, exactly the degraded mode a broken watch causes.
func (l *Link) reconcile(ctx context.Context) {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return
	}
	l.mu.Unlock()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	remotes, seq, err := l.remote.FindSeq(sctx, vsr.Query{})
	cancel()
	if err != nil {
		l.mu.Lock()
		l.st.LastError = err.Error()
		l.mu.Unlock()
		return
	}
	seen := make(map[string]bool, len(remotes))
	for _, r := range remotes {
		l.upsert(r)
		seen[r.Desc.ID] = true
	}
	l.mu.Lock()
	var stale []string
	for remoteID, key := range l.imported {
		if !seen[remoteID] {
			stale = append(stale, key)
			delete(l.imported, remoteID)
		}
	}
	if seq > l.st.Cursor {
		l.st.Cursor = seq
	}
	l.st.LastSync = l.p.clock.Now()
	l.mu.Unlock()
	for _, key := range stale {
		l.p.reg.Delete(key)
	}
}

// Reconcile runs one snapshot reconciliation on a manual link (see
// reconcile); the background link schedules its own.
func (l *Link) Reconcile(ctx context.Context) { l.reconcile(ctx) }

// Pull drives one synchronous replication round on a manual link: a
// single immediate watch probe against the remote export face, folded
// through the same delta state machine the background link runs — Up on
// first contact (with a full reconcile), Down on failure, Resync when
// the remote journal has skipped past the cursor, then each pending
// change in order. The returned error is the transport failure, if any;
// link status degrades the same way a broken watch stream would.
func (l *Link) Pull(ctx context.Context) error {
	l.mu.Lock()
	if l.stopped {
		l.mu.Unlock()
		return nil
	}
	since, sinceEpoch := l.st.Cursor, l.st.CursorEpoch
	up := l.st.Connected
	l.mu.Unlock()
	deltas, next, nextEpoch, resync, err := l.remote.WatchOnceEpoch(ctx, since, sinceEpoch, 0)
	if err != nil {
		l.apply(ctx, vsr.Delta{Op: vsr.DeltaDown, Err: err})
		return err
	}
	if !up {
		l.apply(ctx, vsr.Delta{Op: vsr.DeltaUp, Seq: next})
	}
	if resync {
		l.apply(ctx, vsr.Delta{Op: vsr.DeltaResync, Seq: next})
	}
	for _, d := range deltas {
		l.apply(ctx, d)
	}
	// An empty or fully filtered round still advances the cursor, exactly
	// as the background watch loop advances `since`. A round that crossed
	// into a newer epoch adopts next even when it sits below the old
	// cursor: the remote failed over, and next is the promoted replica's
	// shared-history replay point, not a stale answer.
	l.mu.Lock()
	if nextEpoch > l.st.CursorEpoch {
		l.st.Cursor, l.st.CursorEpoch = next, nextEpoch
	} else if next > l.st.Cursor {
		l.st.Cursor = next
	}
	l.mu.Unlock()
	return nil
}

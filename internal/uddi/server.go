package uddi

import (
	"context"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"homeconnect/internal/core/audit"
)

// numShards splits the index by service-key hash so registration and
// inquiry from many gateways stop contending on one mutex. Power of two.
const numShards = 16

// defaultJournalCapacity bounds the change journal; watchers further
// behind than this are told to resync (drop caches, resume from the
// current sequence) rather than silently miss changes.
const defaultJournalCapacity = 1024

// sweepInterval is how often the expiry janitor scans for lapsed
// registrations. Expired entries are invisible to reads immediately; the
// janitor exists to delete them and journal the expiry for watchers.
const sweepInterval = 100 * time.Millisecond

// maxWatchTimeout caps how long one watch request may park server-side.
const maxWatchTimeout = 30 * time.Second

// Server is an in-memory UDDI-style registry with a change journal. The
// zero value is not usable; call NewServer.
type Server struct {
	// nowFn is swappable for expiry tests; atomic so the janitor and
	// SetClock don't race.
	nowFn atomic.Value // func() time.Time

	shards [numShards]shard

	// The journal: a ring of the most recent changes, covering sequence
	// numbers (seq-len(journal), seq]. Mutators append while holding
	// their shard lock (shard → journal lock order, never the reverse),
	// so journal order always matches per-key map order.
	jmu     sync.Mutex
	journal []Change
	jcap    int
	seq     uint64
	wake    chan struct{} // closed and replaced on every append

	// epoch and epochLeader are the replication epoch: which leader
	// regime the journal's recent history belongs to (see replica.go).
	// Guarded by jmu; persisted as WAL epoch frames and in snapshots.
	epoch       uint64
	epochLeader string
	// epochMarks remembers, per epoch bump this node witnessed in place,
	// the journal position the previous regime ended at. Watchers holding
	// cursors from an older epoch are replayed from that boundary instead
	// of being forced into a full resync (see ChangesEpoch). Cleared on a
	// state-transfer re-ground, whose journal discontinuity makes old
	// cursors unservable anyway. Guarded by jmu.
	epochMarks []epochMark

	// replica, when non-nil, puts the registry in replica mode: the wire
	// faces refuse publication (E_notLeader, naming the leader), and the
	// expiry sweep stops journaling — lapsed entries go invisible to reads
	// immediately but their expire records arrive from the leader's feed,
	// keeping sequence numbers identical across the replica set.
	replica atomic.Pointer[replicaState]

	// saves and finds count operations for the benchmark harness;
	// watches counts watch requests served on the wire faces.
	saves   atomic.Int64
	finds   atomic.Int64
	watches atomic.Int64

	// shardOps counts mutations per shard — the simulation harness reads
	// the distribution to test shard-load uniformity under churn.
	shardOps [numShards]atomic.Int64

	// auditRec, when set, receives registry lifecycle events: TTL
	// expiries and endpoint re-homes.
	auditRec atomic.Pointer[audit.Recorder]

	// wal, when non-nil, persists the journal to disk (see wal.go). Its
	// fields are guarded by jmu. recoveredPending defers the boot-time
	// registry.recovered audit event until a recorder is installed.
	wal              *wal
	recoveredMsg     string
	recoveredPending atomic.Bool

	stopOnce sync.Once
	stop     chan struct{}
}

type shard struct {
	mu      sync.RWMutex
	entries map[string]*record
}

type record struct {
	entry   Entry
	expires time.Time
}

// NewServer returns an empty registry and starts its expiry janitor;
// call Close to stop it.
func NewServer() *Server {
	s := NewManualServer()
	go s.janitor()
	return s
}

// NewManualServer returns an empty registry with no background janitor:
// the owner drives expiry by calling Sweep. This is the construction the
// deterministic simulation uses — expiry happens exactly when the event
// loop schedules it, never on a wall-clock tick.
func NewManualServer() *Server {
	s := &Server{
		jcap: defaultJournalCapacity,
		wake: make(chan struct{}),
		stop: make(chan struct{}),
	}
	s.nowFn.Store(time.Now)
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*record)
	}
	return s
}

// Sweep runs one expiry pass at the registry's current clock reading,
// deleting lapsed registrations and journaling each expiry, then any due
// durability work (interval fsync, snapshot). The background janitor
// calls this every sweepInterval; a manual registry's owner calls it on
// its own schedule.
func (s *Server) Sweep() {
	s.expireSweep()
	s.walMaintain()
}

// Close stops the expiry janitor, wakes parked watchers, and closes the
// WAL (flushed, but without the clean-shutdown marker — use Shutdown for
// a marked close that lets the next boot skip tail recovery).
func (s *Server) Close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.jmu.Lock()
		if s.wal != nil && s.wal.f != nil {
			s.wal.f.Sync()
			s.wal.f.Close()
			s.wal.f = nil
		}
		close(s.wake)
		s.wake = make(chan struct{})
		s.jmu.Unlock()
	})
}

// SetClock overrides the time source (tests only).
func (s *Server) SetClock(now func() time.Time) { s.nowFn.Store(now) }

// SetAuditRecorder installs the audit recorder registry lifecycle events
// (expiries, re-homes, recovery) are reported to; nil turns recording
// off. If the registry recovered from an unclean shutdown before a
// recorder existed, the deferred registry.recovered event is emitted now.
func (s *Server) SetAuditRecorder(r audit.Recorder) {
	if r == nil {
		s.auditRec.Store(nil)
		return
	}
	s.auditRec.Store(&r)
	if s.recoveredPending.CompareAndSwap(true, false) {
		s.auditEvent(audit.Event{Type: audit.RegistryRecovered, Detail: s.recoveredMsg})
	}
}

// auditEvent emits an audit event if a recorder is installed.
func (s *Server) auditEvent(ev audit.Event) {
	p := s.auditRec.Load()
	if p != nil {
		(*p).Record(ev)
	}
}

func (s *Server) now() time.Time { return s.nowFn.Load().(func() time.Time)() }

// SetJournalCapacity resizes the change journal (set before traffic
// flows; existing excess history is discarded).
func (s *Server) SetJournalCapacity(n int) {
	if n < 1 {
		n = 1
	}
	s.jmu.Lock()
	defer s.jmu.Unlock()
	s.jcap = n
	if len(s.journal) > n {
		s.journal = append([]Change(nil), s.journal[len(s.journal)-n:]...)
	}
}

func shardIndex(key string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() & (numShards - 1))
}

func (s *Server) shardFor(key string) *shard {
	return &s.shards[shardIndex(key)]
}

// ShardLoads returns cumulative mutations (saves and deletes) per index
// shard. The simulation harness tests this distribution for uniformity
// under churn — a hot shard here is a hot mutex under load.
func (s *Server) ShardLoads() []int64 {
	out := make([]int64, numShards)
	for i := range s.shardOps {
		out[i] = s.shardOps[i].Load()
	}
	return out
}

// JournalStats reports the journal's current length, capacity and head
// sequence number — how close watchers are to being forced into resync.
func (s *Server) JournalStats() (length, capacity int, seq uint64) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return len(s.journal), s.jcap, s.seq
}

// appendChange journals one mutation, writing it through to the WAL (when
// durable) before the caller's save/delete returns. expires carries the
// registration deadline for adds/updates so recovery can re-arm leases
// with their remaining lifetime; zero for deletes and expiries. Callers
// hold the shard lock for the change's key, which serializes per-key
// journal order with map order.
func (s *Server) appendChange(op ChangeOp, e Entry, expires time.Time) {
	if op == OpDelete || op == OpExpire {
		// Invalidation needs identity, not payload; drop the heavy fields.
		e = Entry{Key: e.Key, Name: e.Name}
	}
	s.jmu.Lock()
	s.seq++
	s.journal = append(s.journal, Change{Seq: s.seq, Op: op, Entry: e.Clone(), Expires: expires})
	if len(s.journal) > s.jcap {
		s.journal = s.journal[len(s.journal)-s.jcap:]
	}
	s.walAppend(op, e, expires)
	close(s.wake)
	s.wake = make(chan struct{})
	s.jmu.Unlock()
}

// janitor deletes lapsed registrations and journals each expiry, so
// watchers learn about silently dead services without polling.
func (s *Server) janitor() {
	t := time.NewTicker(sweepInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

func (s *Server) expireSweep() {
	if s.replica.Load() != nil {
		// Replicas never journal their own expiries: reads already skip
		// lapsed entries, and the authoritative expire record arrives from
		// the leader's feed under the leader's sequence number. A local
		// sweep here would assign divergent sequence numbers.
		return
	}
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for key, rec := range sh.entries {
			if now.After(rec.expires) {
				delete(sh.entries, key)
				s.appendChange(OpExpire, rec.entry, time.Time{})
				s.auditEvent(audit.Event{Type: audit.Expire, Service: rec.entry.Name,
					Detail: "registration TTL lapsed (gateway went silent)"})
			}
		}
		sh.mu.Unlock()
	}
}

// Save registers or replaces an entry with the given TTL and returns its
// key.
func (s *Server) Save(e Entry, ttl time.Duration) string {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	if e.Key == "" {
		e.Key = NewKey()
	}
	sh := s.shardFor(e.Key)
	sh.mu.Lock()
	s.saves.Add(1)
	s.shardOps[shardIndex(e.Key)].Add(1)
	op := OpAdd
	rehomedFrom := ""
	if old, ok := sh.entries[e.Key]; ok && !s.now().After(old.expires) {
		op = OpUpdate
		if old.entry.AccessPoint != e.AccessPoint {
			rehomedFrom = old.entry.AccessPoint
		}
	}
	deadline := s.now().Add(ttl)
	sh.entries[e.Key] = &record{entry: e.Clone(), expires: deadline}
	s.appendChange(op, e, deadline)
	sh.mu.Unlock()
	if rehomedFrom != "" {
		s.auditEvent(audit.Event{Type: audit.ReHome, Service: e.Name,
			Detail: rehomedFrom + " → " + e.AccessPoint})
	}
	return e.Key
}

// SaveAll registers every entry under one TTL and returns the keys in
// order — the batched form gateways use to renew all their exports in a
// single round trip.
func (s *Server) SaveAll(entries []Entry, ttl time.Duration) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = s.Save(e, ttl)
	}
	return keys
}

// Delete removes an entry; deleting an unknown key is not an error,
// matching UDDI semantics for already-expired registrations.
func (s *Server) Delete(key string) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	if rec, ok := sh.entries[key]; ok {
		delete(sh.entries, key)
		s.shardOps[shardIndex(key)].Add(1)
		s.appendChange(OpDelete, rec.entry, time.Time{})
	}
	sh.mu.Unlock()
}

// Get returns the entry for key if present and unexpired.
func (s *Server) Get(key string) (Entry, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.entries[key]
	if !ok || s.now().After(rec.expires) {
		return Entry{}, false
	}
	return rec.entry.Clone(), true
}

// Find returns unexpired entries matching q, ordered by name then key for
// determinism. Expired entries are skipped (the janitor deletes and
// journals them).
func (s *Server) Find(q Query) []Entry {
	s.finds.Add(1)
	now := s.now()
	var out []Entry
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			if now.After(rec.expires) {
				continue
			}
			if q.Matches(rec.entry) {
				out = append(out, rec.entry.Clone())
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Len reports the number of live entries.
func (s *Server) Len() int {
	n := 0
	now := s.now()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			if !now.After(rec.expires) {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns cumulative (saves, finds) counters.
func (s *Server) Stats() (saves, finds int64) {
	return s.saves.Load(), s.finds.Load()
}

// Watches returns the cumulative count of watch requests served on the
// wire faces (the watch op, XML and binuddi alike; not the replication
// feed's repl_watch): one per long-poll round of every gateway, peer
// link and federation change stream reading this registry.
func (s *Server) Watches() int64 { return s.watches.Load() }

// Seq returns the sequence number of the most recent change.
func (s *Server) Seq() uint64 {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	return s.seq
}

// Changes returns the journal entries with sequence numbers greater than
// since, plus the cursor to resume from. resync is true when the journal
// no longer covers since (the watcher fell too far behind, or it resumed
// against a restarted registry): the watcher must discard everything it
// cached and continue from next.
func (s *Server) Changes(since uint64) (changes []Change, next uint64, resync bool) {
	changes, next, _, resync = s.ChangesEpoch(since, 0, false)
	return changes, next, resync
}

// ChangesEpoch is Changes for a watcher that also states which replication
// epoch its cursor came from (0 means unknown — legacy behavior). The
// epoch lets the registry serve cursors across a failover:
//
//   - A cursor from an older epoch pointing past that regime's end is
//     replayed from the epoch boundary — the last journal position the
//     regimes share — instead of resyncing. Journal ops are idempotent
//     per key, so redelivering shared history is safe; records the dead
//     regime acknowledged but never replicated return via the deposed
//     leader's rejoin handback, and any the watcher applied that the new
//     regime never saw age out by TTL.
//   - A replica holds a same-regime cursor that is ahead of its feed
//     (nothing lost — the watcher just raced the replication lag) and
//     answers it once the feed catches up.
//
// strict disables the boundary replay — a diverged cursor resyncs. The
// replication feed itself uses strict mode: a replica must mirror its
// leader exactly, so records it applied beyond the boundary have to be
// discarded by a state transfer, not papered over by replay (replayed
// records at or below its own position would be skipped as duplicates).
func (s *Server) ChangesEpoch(since, sinceEpoch uint64, strict bool) (changes []Change, next, nextEpoch uint64, resync bool) {
	s.jmu.Lock()
	defer s.jmu.Unlock()
	nextEpoch = s.epoch
	oldest := s.seq - uint64(len(s.journal)) // journal covers (oldest, seq]
	if sinceEpoch > 0 && sinceEpoch < s.epoch {
		b, ok := s.epochBoundaryLocked(sinceEpoch)
		if !ok {
			// The boundary is unknown (bumped before this node's memory):
			// no way to tell shared history from divergence.
			return nil, s.seq, nextEpoch, true
		}
		if since > b {
			if strict {
				return nil, s.seq, nextEpoch, true
			}
			since = b
		}
	}
	if since > s.seq {
		// A replica shares its leader's sequence space, so a watcher that
		// failed over here can present a cursor the replication feed has
		// not reached yet. The watcher lost nothing — hold its cursor and
		// let it retry once the feed catches up, instead of forcing a full
		// resync. A leader seeing a future same-regime cursor still
		// resyncs: that cursor came from history this node never had.
		if s.ReplicaOf() != "" {
			return nil, since, nextEpoch, false
		}
		return nil, s.seq, nextEpoch, true
	}
	if since < oldest {
		return nil, s.seq, nextEpoch, true
	}
	// Sequence numbers are contiguous, so the requested tail is a single
	// slice — no per-record scan of a journal that is mostly history.
	tail := s.journal[len(s.journal)-int(s.seq-since):]
	if len(tail) > 0 {
		changes = append(make([]Change, 0, len(tail)), tail...)
	}
	return changes, s.seq, nextEpoch, false
}

// WatchChanges long-polls the journal: it returns as soon as there are
// changes after since (or a resync condition), blocking up to timeout. A
// zero timeout returns immediately — an empty result with the current
// cursor, which watchers use as a cheap liveness probe.
func (s *Server) WatchChanges(ctx context.Context, since uint64, timeout time.Duration) (changes []Change, next uint64, resync bool, err error) {
	changes, next, _, resync, err = s.WatchChangesEpoch(ctx, since, 0, timeout, false)
	return changes, next, resync, err
}

// WatchChangesEpoch is WatchChanges with the watcher's cursor epoch (see
// ChangesEpoch). A round that crosses an epoch — the watcher's cursor is
// from an older regime — returns immediately even when empty, so the
// watcher re-grounds its cursor and epoch rather than parking on a
// boundary it cannot see.
func (s *Server) WatchChangesEpoch(ctx context.Context, since, sinceEpoch uint64, timeout time.Duration, strict bool) (changes []Change, next, nextEpoch uint64, resync bool, err error) {
	// Wall-clock deadline: the swappable clock governs TTLs, not polls.
	deadline := time.Now().Add(timeout)
	for {
		s.jmu.Lock()
		waitCh := s.wake
		s.jmu.Unlock()
		changes, next, nextEpoch, resync = s.ChangesEpoch(since, sinceEpoch, strict)
		if len(changes) > 0 || resync || (sinceEpoch > 0 && nextEpoch != sinceEpoch) {
			return changes, next, nextEpoch, resync, nil
		}
		select {
		case <-s.stop:
			return nil, next, nextEpoch, false, nil
		default:
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, next, nextEpoch, false, nil
		}
		timer := time.NewTimer(remaining)
		select {
		case <-waitCh:
			timer.Stop()
		case <-timer.C:
			return nil, next, nextEpoch, false, nil
		case <-ctx.Done():
			timer.Stop()
			return nil, next, nextEpoch, false, ctx.Err()
		}
	}
}

// Differential tests for the category index: after every mutation path
// — Save, SaveAll, Delete, expiry, both replication applies, WAL and
// snapshot recovery — Find must return exactly what a scan of the live
// registry through Query.Matches returns, in the same order, and the
// index must describe exactly the records the shards hold.
package uddi

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"
)

// checkIndex rebuilds every shard's category index from its entries and
// requires byCat to equal it, record pointers included: a posting left
// behind by a deleted or replaced record fails here.
func checkIndex(t *testing.T, s *Server) {
	t.Helper()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		want := make(map[catPair]map[string]*record)
		for key, rec := range sh.entries {
			for k, v := range rec.entry.Categories {
				if v == "" {
					continue
				}
				p := catPair{k, v}
				if want[p] == nil {
					want[p] = make(map[string]*record)
				}
				want[p][key] = rec
			}
		}
		ok := reflect.DeepEqual(want, sh.byCat)
		for p, set := range sh.byCat {
			for key, rec := range set {
				if sh.entries[key] != rec {
					ok = false
					t.Errorf("shard %d: pair %v posts %s at a record the shard no longer holds", i, p, key)
				}
			}
		}
		sh.mu.RUnlock()
		if !ok {
			t.Fatalf("shard %d index out of step with its entries:\nindex %v\nwant  %v", i, sh.byCat, want)
		}
	}
}

// scanFind is the reference: every live entry, filtered through Matches.
// Find(Query{}) has no constraint to narrow by, so it is the full scan.
func scanFind(s *Server, q Query) []Entry {
	var out []Entry
	for _, e := range s.Find(Query{}) {
		if q.Matches(e) {
			out = append(out, e)
		}
	}
	return out
}

func checkFind(t *testing.T, s *Server, step string, qs []Query) {
	t.Helper()
	for _, q := range qs {
		got, want := s.Find(q), scanFind(s, q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Find(%+v) =\n%v\nscan gives\n%v", step, q, got, want)
		}
	}
}

var (
	idxKeys   = []string{"room", "mw", "zone", "homeconnect.id"}
	idxValues = []string{"", "hall", "den", "x10", "havi"}
	idxNames  = []string{"x10:lamp-1", "x10:lamp-2", "havi:vcr", "jini:disc"}
	idxModels = []string{"", "Lamp", "VCR"}
)

// fixedQueries cover zero, one and several constraints, an unknown pair,
// empty-valued constraints (which match entries lacking the key) and
// name/tModel mixes.
var fixedQueries = []Query{
	{},
	{Categories: map[string]string{"room": "hall"}},
	{Categories: map[string]string{"room": "hall", "mw": "x10"}},
	{Categories: map[string]string{"room": "den", "mw": "havi", "zone": "hall"}},
	{Categories: map[string]string{"room": "attic"}},
	{Categories: map[string]string{"nokey": "x10"}},
	{Categories: map[string]string{"room": ""}},
	{Categories: map[string]string{"room": "", "mw": "x10"}},
	{Categories: map[string]string{"room": "", "zone": ""}},
	{Name: "x10:%"},
	{Name: "x10:%", Categories: map[string]string{"mw": "havi"}},
	{TModel: "Lamp", Categories: map[string]string{"room": "den"}},
	{Name: "havi:vcr", TModel: "VCR"},
	{Name: "%", TModel: "", Categories: map[string]string{"zone": ""}},
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

// randCats returns a category bag that changes between saves of the same
// key: any subset of the keys, empty values included, sometimes nil.
func randCats(r *rand.Rand) map[string]string {
	if r.IntN(8) == 0 {
		return nil
	}
	cats := make(map[string]string)
	for _, k := range idxKeys {
		if r.IntN(2) == 0 {
			cats[k] = pick(r, idxValues)
		}
	}
	return cats
}

func randEntry(r *rand.Rand) Entry {
	return Entry{
		Key:         fmt.Sprintf("uuid:k%02d", r.IntN(30)),
		Name:        pick(r, idxNames),
		AccessPoint: fmt.Sprintf("http://gw%d.test/svc", r.IntN(4)),
		TModel:      pick(r, idxModels),
		Categories:  randCats(r),
	}
}

func randQuery(r *rand.Rand) Query {
	q := Query{Categories: randCats(r)}
	if r.IntN(3) == 0 {
		q.Name = pick(r, append([]string{"%", "x10:%"}, idxNames...))
	}
	if r.IntN(3) == 0 {
		q.TModel = pick(r, idxModels)
	}
	return q
}

func randTTL(r *rand.Rand) time.Duration { return time.Duration(1+r.IntN(5)) * time.Second }

// TestFindMatchesScan drives seeded random sequences of every mutation
// path and checks Find against the scan, and the index against the
// shards, after each step.
func TestFindMatchesScan(t *testing.T) {
	cases := []struct {
		name    string
		seed    uint64
		durable bool
	}{
		{"memory-1", 1, false},
		{"memory-2", 2, false},
		{"memory-3", 3, false},
		{"durable-1", 11, true},
		{"durable-2", 12, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewPCG(tc.seed, 0))
			now := time.Unix(1_700_000_000, 0)
			clock := func() time.Time { return now }
			dir := t.TempDir()
			open := func() *Server {
				if !tc.durable {
					return NewManualServer()
				}
				return durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
			}
			s := open()
			s.SetClock(clock)
			defer func() { s.Close() }()

			for i := 0; i < 400; i++ {
				var step string
				switch k := r.IntN(10); {
				case k < 3:
					e := randEntry(r)
					s.Save(e, randTTL(r))
					step = "save " + e.Key
				case k == 3:
					batch := make([]Entry, 1+r.IntN(4))
					for j := range batch {
						batch[j] = randEntry(r)
					}
					s.SaveAll(batch, randTTL(r))
					step = "save_services"
				case k == 4:
					key := randEntry(r).Key
					s.Delete(key)
					step = "delete " + key
				case k == 5:
					now = now.Add(time.Duration(r.IntN(3000)) * time.Millisecond)
					s.Sweep()
					step = "sweep"
				case k == 6:
					c := Change{Seq: s.Seq() + 1 + uint64(r.IntN(2)), Entry: randEntry(r),
						Op: pick(r, []ChangeOp{OpAdd, OpUpdate, OpDelete, OpExpire})}
					if c.Op == OpAdd || c.Op == OpUpdate {
						c.Expires = now.Add(randTTL(r))
					}
					if err := s.ApplyReplicated(c); err != nil {
						t.Fatal(err)
					}
					step = fmt.Sprintf("apply %s %s", c.Op, c.Entry.Key)
				case k == 7 && r.IntN(4) == 0:
					byKey := map[string]Entry{}
					for j := r.IntN(20); j > 0; j-- {
						e := randEntry(r)
						byKey[e.Key] = e
					}
					var entries []Entry
					var deadlines []time.Time
					for _, e := range byKey {
						entries = append(entries, e)
						deadlines = append(deadlines, now.Add(randTTL(r)))
					}
					epoch, leader := s.Epoch()
					if err := s.ApplyReplicatedState(entries, deadlines, s.Seq()+uint64(r.IntN(5)), epoch, leader); err != nil {
						t.Fatal(err)
					}
					step = fmt.Sprintf("apply state of %d", len(entries))
				case k >= 8 && tc.durable && r.IntN(3) == 0:
					if r.IntN(2) == 0 {
						if err := s.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
					if r.IntN(2) == 0 {
						s.CrashClose()
					} else if err := s.Shutdown(); err != nil {
						t.Fatal(err)
					}
					s = open()
					s.SetClock(clock)
					step = "reopen"
				default:
					e := randEntry(r)
					s.Save(e, randTTL(r))
					step = "save " + e.Key
				}
				step = fmt.Sprintf("step %d (%s)", i, step)
				checkIndex(t, s)
				qs := append([]Query(nil), fixedQueries...)
				for j := 0; j < 4; j++ {
					qs = append(qs, randQuery(r))
				}
				checkFind(t, s, step, qs)
			}
		})
	}
}

// TestFindIndexConcurrent runs indexed reads against a writer so the race
// detector sees the index maintained and read under the shard locks, and
// checks every read is a correctly filtered, ordered result.
func TestFindIndexConcurrent(t *testing.T) {
	s := NewManualServer()
	defer s.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(seed, 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randQuery(r)
				got := s.Find(q)
				for i, e := range got {
					if !q.Matches(e) {
						t.Errorf("Find(%+v) returned non-matching %+v", q, e)
						return
					}
					if i > 0 && (got[i-1].Name > e.Name || got[i-1].Name == e.Name && got[i-1].Key >= e.Key) {
						t.Errorf("Find(%+v) out of order at %d", q, i)
						return
					}
				}
			}
		}(uint64(w))
	}
	r := rand.New(rand.NewPCG(99, 0))
	for i := 0; i < 2000; i++ {
		if r.IntN(4) == 0 {
			s.Delete(randEntry(r).Key)
		} else {
			s.Save(randEntry(r), time.Hour)
		}
	}
	close(stop)
	wg.Wait()
	checkIndex(t, s)
	checkFind(t, s, "after writes", fixedQueries)
}

// BenchmarkRegistryFindByID is a repository lookup by federation ID, the
// query vsr.Lookup sends, against 1000 entries shaped like the ones the
// VSR publishes (middleware, ID and context categories, inline WSDL).
func BenchmarkRegistryFindByID(b *testing.B) {
	const n = 1000
	s := NewManualServer()
	b.Cleanup(s.Close)
	wsdl := string(make([]byte, 2048))
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("x10:dev-%d", i)
		s.Save(Entry{
			Key: "uuid:svc-" + ids[i], Name: ids[i], Description: "bench device",
			AccessPoint: fmt.Sprintf("http://10.0.0.1:8800/services/%s", ids[i]),
			TModel:      "Lamp", WSDL: wsdl,
			Categories: map[string]string{"homeconnect.middleware": "x10",
				"homeconnect.id": ids[i], "room": idxValues[1+i%4]},
		}, time.Hour)
	}
	q := Query{Categories: map[string]string{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Categories["homeconnect.id"] = ids[i%n]
		if got := s.Find(q); len(got) != 1 {
			b.Fatalf("found %d entries for %s", len(got), ids[i%n])
		}
	}
}

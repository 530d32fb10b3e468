package uddi

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"homeconnect/internal/service"
	"homeconnect/internal/wsdl"
)

// vsrShapedEntry is the i-th registration as the repository stores a
// gateway's export: keyed by service ID, with the middleware and ID
// categories and an inline WSDL document rendered for its endpoint.
func vsrShapedEntry(tb testing.TB, i int, doc string) Entry {
	tb.Helper()
	id := fmt.Sprintf("jini:lamp-%d", i)
	endpoint := fmt.Sprintf("http://10.0.%d.%d:8080/services/%s", i/256, i%256, id)
	it := service.Interface{Name: "Lamp", Doc: doc, Operations: []service.Operation{
		{Name: "On", Output: service.KindVoid},
		{Name: "Off", Output: service.KindVoid},
		{Name: "SetLevel", Inputs: []service.Parameter{{Name: "level", Type: service.KindInt}}, Output: service.KindVoid},
		{Name: "Level", Output: service.KindInt},
	}}
	text, err := wsdl.Generate(it, endpoint)
	if err != nil {
		tb.Fatal(err)
	}
	return Entry{
		Key:         "uuid:svc-" + id,
		Name:        id,
		Description: "Living room lamp",
		AccessPoint: endpoint,
		TModel:      it.Name,
		WSDL:        string(text),
		Categories:  map[string]string{"homeconnect.middleware": "jini", "homeconnect.id": id, "room": "living"},
	}
}

// TestLargeSnapshotRecovers: a registry whose snapshot is larger than
// one WAL frame may be (maxWALFrame) still comes back whole. 3000
// entries with WSDL documents of at least 1500 bytes make a snapshot
// above 4 MiB; two snapshot generations prune the WAL behind the older
// one, so nothing but the snapshots can restore the entries after the
// crash. A v1 snapshot was one frame, and recovery refused it.
func TestLargeSnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	doc := strings.Repeat("d", max(0, 1500-len(vsrShapedEntry(t, 0, "").WSDL)))
	const n = 3000
	for i := 0; i < n; i++ {
		e := vsrShapedEntry(t, i, doc)
		if len(e.WSDL) < 1500 {
			t.Fatalf("WSDL is %d bytes, want at least 1500", len(e.WSDL))
		}
		s.Save(e, time.Hour)
	}
	for _, extra := range []int{n, n + 1} {
		if err := s.Snapshot(); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		s.Save(vsrShapedEntry(t, extra, doc), time.Hour)
	}
	seq := s.Seq()
	s.CrashClose()

	s2 := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1})
	defer s2.Close()
	rec := s2.Recovery()
	if rec.SnapshotFallback || rec.SnapshotSeq == 0 {
		t.Fatalf("newest snapshot not used: %+v", rec)
	}
	if s2.Len() != n+2 || s2.Seq() != seq {
		t.Fatalf("recovered %d of %d entries to seq %d (want %d): %+v", s2.Len(), n+2, s2.Seq(), seq, rec)
	}
	for i := 0; i < n+2; i += 97 {
		want := vsrShapedEntry(t, i, doc)
		if got, ok := s2.Get(want.Key); !ok || got.WSDL != want.WSDL || got.AccessPoint != want.AccessPoint {
			t.Fatalf("entry %d not restored intact (found %v)", i, ok)
		}
	}
}

// BenchmarkSnapshot writes a full snapshot of a 1000-entry registry of
// vsr-shaped entries — the work walMaintain does every SnapshotEvery
// records under churn. Each iteration also rotates the WAL segment and
// syncs the snapshot file, as the steady state does.
func BenchmarkSnapshot(b *testing.B) {
	dir := b.TempDir()
	s, err := NewManualDurableServer(DurabilityOptions{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 1000; i++ {
		s.Save(vsrShapedEntry(b, i, ""), time.Hour)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

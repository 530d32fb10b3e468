// Hostile-input tests for boot recovery: FuzzWALRecovery feeds arbitrary
// bytes to recovery as a WAL segment and a snapshot, and
// TestWALv1DirectoryBoots boots a data directory written by the v1
// snapshot writer (testdata/wal-v1), so a format change cannot strand
// an existing deployment's registry.
package uddi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// recoveryEpoch is the fixed clock fuzzed and fixture directories boot
// under, so lease deadlines judge the same way on every run.
func recoveryEpoch() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) }

const (
	fuzzSegName  = "wal-0000000000000001.log"
	fuzzSnapName = "snap-0000000000000001.snap"
)

// fixCRCs rewrites the CRC word of every length-delimited frame after
// the magic, so mutated payloads reach the record decoders instead of
// all dying at the checksum.
func fixCRCs(data []byte, magic string) []byte {
	data = append([]byte(nil), data...)
	off := len(magic)
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		if n <= 0 || n > len(data)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(data[off+4:], crc32.ChecksumIEEE(data[off+8:off+8+n]))
		off += 8 + n
	}
	return data
}

// intactWAL walks a segment the way recovery must: it returns the bytes
// recovery may keep (a trailing shutdown marker excluded), whether the
// segment has a torn tail, and the sequence number of the last intact
// mutation record.
func intactWAL(data []byte) (keep []byte, torn bool, lastSeq uint64, haveLast bool) {
	if !strings.HasPrefix(string(data), walMagic) {
		return nil, true, 0, false
	}
	off, markerAt := len(walMagic), -1
	for off < len(data) {
		payload, next, err := readWALFrame(data, off)
		if err != nil {
			break
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			break
		}
		markerAt = -1
		switch rec.op {
		case opWALMarker:
			if next == len(data) {
				markerAt = off
			}
		case opWALAdd, opWALUpdate, opWALDelete, opWALExpire:
			lastSeq, haveLast = rec.seq, true
		}
		off = next
	}
	if off < len(data) {
		return data[:off], true, lastSeq, haveLast
	}
	if markerAt >= 0 {
		return data[:markerAt], false, lastSeq, haveLast
	}
	return data, false, lastSeq, haveLast
}

// seedEntry is a small registration for fuzz seeds: the minimizer's
// cost grows with the input, so seeds stay a few hundred bytes.
func seedEntry(i int) Entry {
	return Entry{Key: fmt.Sprintf("k%d", i), Name: fmt.Sprintf("n%d", i),
		AccessPoint: fmt.Sprintf("http://h/%d", i), WSDL: "<d/>",
		Categories: map[string]string{"m": "jini"}}
}

// writerSeeds runs the current writer through saves, an epoch change, a
// snapshot, an update and a delete, and returns its segments and
// snapshot.
func writerSeeds(tb testing.TB) (segs [][]byte, snap []byte) {
	dir := tb.TempDir()
	s, err := NewManualDurableServer(DurabilityOptions{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1, Clock: recoveryEpoch})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		s.Save(seedEntry(i), time.Hour)
	}
	if err := s.SetEpoch(3, "L"); err != nil {
		tb.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		tb.Fatal(err)
	}
	e := seedEntry(2)
	e.AccessPoint = "http://h/9"
	s.Save(e, time.Hour)
	s.Delete(seedEntry(1).Key)
	s.CrashClose()
	paths, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, b)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 || len(segs) != 2 {
		tb.Fatalf("writer left %d snapshots and %d segments, want 1 and 2", len(snaps), len(segs))
	}
	snap, err = os.ReadFile(snaps[0])
	if err != nil {
		tb.Fatal(err)
	}
	return segs, snap
}

// FuzzWALRecovery boots a registry from an arbitrary WAL segment and
// snapshot (either may be absent; fixCRC re-frames both so mutations
// reach the decoders). Recovery must not panic; it must truncate the
// segment at its last valid frame; the sequence number must not fall
// below the last intact record or the snapshot it used; and booting the
// repaired directory again must find no torn tail and the same state.
// Seeds: testdata/fuzz/FuzzWALRecovery holds the output of the v1 and
// v2 snapshot writers (a snapshot with its tail, torn tails and
// snapshots, epoch and marker records); the current writer's output is
// added below.
func FuzzWALRecovery(f *testing.F) {
	segs, snap := writerSeeds(f)
	f.Add(segs[1], snap, false)
	f.Add(segs[0], []byte(nil), false)
	f.Add([]byte(nil), snap, false)
	f.Add(segs[1], snap[:len(snap)-7], false)
	f.Add(segs[0][:len(segs[0])-2], snap, true)
	f.Fuzz(checkRecovery)
}

// checkRecovery is FuzzWALRecovery's property check for one input.
func checkRecovery(t *testing.T, wal, snap []byte, fixCRC bool) {
	if fixCRC {
		wal, snap = fixCRCs(wal, walMagic), fixCRCs(snap, snapMagic)
	}
	dir := t.TempDir()
	segPath := filepath.Join(dir, fuzzSegName)
	if len(wal) > 0 {
		if err := os.WriteFile(segPath, wal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(snap) > 0 {
		if err := os.WriteFile(filepath.Join(dir, fuzzSnapName), snap, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	opts := DurabilityOptions{Dir: dir, Fsync: FsyncOff, SnapshotEvery: -1, Clock: recoveryEpoch}
	s, err := NewManualDurableServer(opts)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	rec := s.Recovery()
	if len(wal) > 0 {
		keep, torn, lastSeq, haveLast := intactWAL(wal)
		got, rerr := os.ReadFile(segPath)
		switch {
		case keep == nil:
			// Bad magic: the segment is dropped, and recreated empty
			// only if recovery ended at sequence 0.
			if rerr == nil && string(got) != walMagic {
				t.Fatalf("unreadable segment left as %q", got)
			}
		case rerr != nil:
			t.Fatalf("segment with a valid prefix removed: %v", rerr)
		case string(got) != string(keep):
			t.Fatalf("segment truncated to %d bytes, want the %d intact ones", len(got), len(keep))
		}
		if rec.TornTail != torn {
			t.Fatalf("TornTail = %v, want %v (%+v)", rec.TornTail, torn, rec)
		}
		if haveLast && s.Seq() < lastSeq {
			t.Fatalf("seq %d fell below the last intact record's %d", s.Seq(), lastSeq)
		}
	}
	if s.Seq() < rec.SnapshotSeq {
		t.Fatalf("seq %d fell below snapshot %d", s.Seq(), rec.SnapshotSeq)
	}
	seq, n := s.Seq(), s.Len()
	epoch, leader := s.Epoch()
	s.CrashClose()

	s2, err := NewManualDurableServer(opts)
	if err != nil {
		t.Fatalf("second boot: %v", err)
	}
	defer s2.Close()
	if r2 := s2.Recovery(); r2.TornTail {
		t.Fatalf("repaired directory still has a torn tail: %+v", r2)
	}
	e2, l2 := s2.Epoch()
	if s2.Seq() != seq || s2.Len() != n || e2 != epoch || l2 != leader {
		t.Fatalf("second boot: seq %d len %d epoch %d %q, first boot %d %d %d %q",
			s2.Seq(), s2.Len(), e2, l2, seq, n, epoch, leader)
	}
	key := s2.Save(Entry{Key: "uuid:after-recovery", Name: "after-recovery"}, time.Hour)
	if _, ok := s2.Get(key); !ok {
		t.Fatal("write after recovery lost")
	}
}

// fixtureEntry is the i-th registration in testdata/wal-v1: a
// vsr-shaped entry with inline WSDL and categories.
func fixtureEntry(i int) Entry {
	name := fmt.Sprintf("jini:lamp-%d", i)
	return Entry{
		Key:         "uuid:svc-" + name,
		Name:        name,
		Description: "fixture lamp",
		AccessPoint: fmt.Sprintf("http://10.0.0.%d:8080/soap", i),
		TModel:      "Lamp",
		WSDL:        fmt.Sprintf(`<definitions name="Lamp"><service name="Lamp"><port name="LampPort"><soap:address location="http://10.0.0.%d:8080/soap"/></port></service></definitions>`, i),
		Categories:  map[string]string{"homeconnect.middleware": "jini", "homeconnect.serviceID": name, "room": "den"},
	}
}

// TestWALv1DirectoryBoots boots testdata/wal-v1, which the v1 writer
// left after six saves, an epoch change to 2, a snapshot at seq 6, two
// more saves, an update of lamp-3 and a delete of lamp-5, then a crash.
// Every entry must come back from the v1 snapshot and its WAL tail.
func TestWALv1DirectoryBoots(t *testing.T) {
	dir := t.TempDir()
	src, err := filepath.Glob(filepath.Join("testdata", "wal-v1", "*"))
	if err != nil || len(src) != 3 {
		t.Fatalf("fixture files %v (%v)", src, err)
	}
	for _, p := range src {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := durableServer(t, dir, DurabilityOptions{SnapshotEvery: -1, Clock: recoveryEpoch})
	defer s.Close()
	rec := s.Recovery()
	if rec.SnapshotSeq != 6 || rec.SnapshotFallback || rec.Replayed != 4 || rec.TornTail {
		t.Fatalf("recovery %+v, want the seq-6 snapshot plus 4 replayed records", rec)
	}
	if s.Seq() != 10 || s.Len() != 7 {
		t.Fatalf("seq %d len %d, want 10 and 7", s.Seq(), s.Len())
	}
	if epoch, leader := s.Epoch(); epoch != 2 || leader != "leader-a" {
		t.Fatalf("epoch %d %q, want 2 leader-a", epoch, leader)
	}
	for i := 1; i <= 8; i++ {
		want := fixtureEntry(i)
		got, ok := s.Get(want.Key)
		if i == 5 {
			if ok {
				t.Fatal("deleted lamp-5 came back")
			}
			continue
		}
		if i == 3 {
			want.AccessPoint = "http://10.0.9.3:8080/soap"
		}
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("lamp-%d: got %+v (found %v), want %+v", i, got, ok, want)
		}
	}
}

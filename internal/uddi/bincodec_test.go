// Tests for the binuddi records: entry round trips over XML-hostile
// strings and rejection of malformed records. The helpers below build
// and read single records through the op table, for tests that drive a
// binary face directly.
package uddi

import (
	"context"
	"testing"
	"time"

	"homeconnect/internal/transport"
)

var hostileEntry = Entry{
	Key:         "uuid:svc-hostile",
	Name:        `<name attr="x">&amp;]]></name>`,
	Description: "line\nbreak\ttab é☃\x00nul",
	AccessPoint: "http://h/soap?q=a&b=<c>",
	TModel:      "IFace",
	WSDL:        `<definitions name="IFace"/>`,
	Categories:  map[string]string{"k<1>": "v&1", "k2": ""},
}

func entriesEqual(a, b Entry) bool {
	if a.Key != b.Key || a.Name != b.Name || a.Description != b.Description ||
		a.AccessPoint != b.AccessPoint || a.TModel != b.TModel || a.WSDL != b.WSDL ||
		len(a.Categories) != len(b.Categories) {
		return false
	}
	for k, v := range a.Categories {
		if b.Categories[k] != v {
			return false
		}
	}
	return true
}

// binServe runs one native record through a registry's binary face.
func binServe(s *Server, f Face, caller string, req []byte) *transport.BinResponse {
	return s.BinHandler(f).ServeBin(context.Background(), caller,
		&transport.BinRequest{Path: "/uddi", ContentType: BinContentType, Body: req})
}

func encodeBinSaveAll(entries []Entry, ttl time.Duration) []byte {
	return encodeBinRequest(&request{op: opSaveAll, entries: entries, ttl: ttl})
}

func encodeBinFind(q Query) []byte { return encodeBinRequest(&request{op: opFind, query: q}) }

func encodeBinGet(key string) []byte { return encodeBinRequest(&request{op: opGet, key: key}) }

func encodeBinWatch(since, sinceEpoch uint64, timeout time.Duration) []byte {
	return encodeBinRequest(&request{op: opWatch, since: since, epoch: sinceEpoch, timeout: timeout})
}

func encodeBinReplSyncReq() []byte { return encodeBinRequest(&request{op: opReplSync}) }

func encodeBinReplWatchReq(since, epoch uint64, timeout time.Duration) []byte {
	return encodeBinRequest(&request{op: opReplWatch, since: since, epoch: epoch, timeout: timeout})
}

func decodeBinKeys(data []byte) ([]string, error) {
	p, err := decodeBinReply(binKeys, data)
	if err != nil {
		return nil, err
	}
	return p.keys, nil
}

func decodeBinEntries(data []byte) ([]Entry, uint64, error) {
	p, err := decodeBinReply(binEntries, data)
	if err != nil {
		return nil, 0, err
	}
	return p.entries, p.seq, nil
}

func decodeBinChanges(data []byte) (changes []Change, next, epoch uint64, resync bool, err error) {
	p, err := decodeBinReply(binChanges, data)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return p.changes, p.seq, p.epoch, p.resync, nil
}

func decodeBinReplChanges(data []byte) (ReplChanges, error) {
	p, err := decodeBinReply(binReplChanges, data)
	if err != nil {
		return ReplChanges{}, err
	}
	return ReplChanges{Changes: p.changes, Next: p.seq, Resync: p.resync, Epoch: p.epoch, Leader: p.leader}, nil
}

func decodeBinReplState(data []byte) (ReplState, error) {
	p, err := decodeBinReply(binReplState, data)
	if err != nil {
		return ReplState{}, err
	}
	return ReplState{Seq: p.seq, Epoch: p.epoch, Leader: p.leader, Entries: p.entries, Deadlines: p.deadlines}, nil
}

func TestBinEntryRoundTrip(t *testing.T) {
	for _, want := range []Entry{{}, {Key: "k", Name: "n"}, hostileEntry} {
		b := appendBinEntry(nil, &want)
		r := &walReader{b: b}
		got := decodeBinEntry(r)
		if r.err != nil {
			t.Fatalf("%s: %v", want.Key, r.err)
		}
		if len(want.Categories) == 0 {
			want.Categories = nil
		}
		if !entriesEqual(got, want) {
			t.Errorf("round trip %+v → %+v", want, got)
		}
	}
}

func TestBinCodecRejectsMalformed(t *testing.T) {
	s := NewServer()
	defer s.Close()
	bad := map[string][]byte{
		"empty":       nil,
		"bad version": {99, binUDDIFind},
		"unknown op":  {binUDDIVersion, 'Z'},
		"truncated save": append([]byte{binUDDIVersion, binUDDISaveAll},
			0x80, 0x01, 0x05),
		"absurd count": append([]byte{binUDDIVersion, binUDDISaveAll, 0},
			0xFF, 0xFF, 0xFF, 0xFF, 0x7F),
		"empty save":   {binUDDIVersion, binUDDISaveAll, 0, 0},
		"absurd ttl":   append([]byte{binUDDIVersion, binUDDISaveAll}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0),
		"keyless drop": {binUDDIVersion, binUDDIDelete, 0},
	}
	for name, req := range bad {
		resp := binServe(s, Face{}, "home-a", req)
		if resp.Status == 200 {
			t.Errorf("%s accepted", name)
		}
		if _, err := decodeBinKeys(resp.Body); err == nil {
			t.Errorf("%s: error response decoded as success", name)
		}
	}
	// Malformed responses must not decode.
	if _, err := decodeBinKeys([]byte{binUDDIVersion, binUDDIEntries}); err == nil {
		t.Error("wrong record kind decoded as keys")
	}
	if _, _, err := decodeBinEntries([]byte{binUDDIVersion, binUDDIEntries, 0, 0x90}); err == nil {
		t.Error("truncated entry list decoded")
	}
	if _, _, _, _, err := decodeBinChanges([]byte{binUDDIVersion, binUDDIChanges, 0}); err == nil {
		t.Error("truncated change list decoded")
	}
}

// TestBinHandlerViewFilters drives one view-filtered binary face through
// find, watch and get on one registry: the view hides and rewrites on
// every read, and the watch cursor still covers the hidden change.
func TestBinHandlerViewFilters(t *testing.T) {
	s := NewServer()
	defer s.Close()
	s.Save(Entry{Key: "uuid:public", Name: "public"}, time.Hour)
	s.Save(Entry{Key: "uuid:secret", Name: "secret"}, time.Hour)
	f := Face{ViewFor: func(caller string) (View, bool) {
		return func(e Entry) (Entry, bool) {
			if e.Name == "secret" {
				return Entry{}, false
			}
			e.Name = caller + "/" + e.Name
			return e, true
		}, true
	}}

	resp := binServe(s, f, "home-b", encodeBinFind(Query{Name: "%"}))
	entries, _, err := decodeBinEntries(resp.Body)
	if err != nil || len(entries) != 1 || entries[0].Name != "home-b/public" {
		t.Fatalf("filtered find = %+v, err=%v", entries, err)
	}

	resp = binServe(s, f, "home-b", encodeBinWatch(0, 0, 0))
	changes, next, _, _, err := decodeBinChanges(resp.Body)
	if err != nil || len(changes) != 1 || changes[0].Entry.Name != "home-b/public" {
		t.Fatalf("filtered watch = %+v, err=%v", changes, err)
	}
	// The cursor still advances past the hidden change.
	if next != s.Seq() {
		t.Fatalf("cursor %d, want %d", next, s.Seq())
	}

	resp = binServe(s, f, "home-b", encodeBinGet("uuid:secret"))
	if entries, _, _ := decodeBinEntries(resp.Body); len(entries) != 0 {
		t.Fatal("hidden entry served through get")
	}
}

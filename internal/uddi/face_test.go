// The face table: every face policy case runs over both encodings — XML
// documents over HTTP and binuddi records over the binary fast path — so
// the two wires are held to one behavior: the same answers, the same
// typed refusals, the same per-caller views.
package uddi

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

var binAuthorities atomic.Int64

// binaryClient returns a client calling h over the binary lane as caller,
// with no HTTP route to fall back on.
func binaryClient(t *testing.T, caller string, h transport.BinHandler) *Client {
	t.Helper()
	homes := map[string]*identity.Auth{}
	ids := map[string]*identity.Identity{}
	for _, home := range []string{caller, "registry-home"} {
		id, err := identity.Generate(home)
		if err != nil {
			t.Fatal(err)
		}
		a := identity.NewAuth(home)
		if err := a.SetIdentity(id); err != nil {
			t.Fatal(err)
		}
		homes[home], ids[home] = a, id
	}
	for home, a := range homes {
		for other, id := range ids {
			if other != home {
				if err := a.Trust(other, id.PublicKey()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	bin := transport.NewBinServer(homes["registry-home"])
	bin.Handle("/uddi", h)
	t.Cleanup(bin.Close)
	authority := fmt.Sprintf("faces-%d.test:1", binAuthorities.Add(1))
	transport.RegisterLocal(authority, bin)
	t.Cleanup(func() { transport.UnregisterLocal(authority) })
	d := transport.NewDialer(homes[caller])
	t.Cleanup(d.Close)
	d.Transport = http.NewFileTransport(http.Dir(t.TempDir()))
	return &Client{URL: "http://" + authority + "/uddi", Dialer: d}
}

// wires are the two encodings of a face, each reached as caller.
var wires = []struct {
	name   string
	client func(t *testing.T, s *Server, f Face, caller string) *Client
}{
	{"xml", func(t *testing.T, s *Server, f Face, caller string) *Client {
		// The auth middleware's part: the verified caller rides the context.
		h := s.Handler(f)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r.WithContext(identity.WithCaller(r.Context(), caller)))
		}))
		t.Cleanup(srv.Close)
		return &Client{URL: srv.URL}
	}},
	{"binuddi", func(t *testing.T, s *Server, f Face, caller string) *Client {
		return binaryClient(t, caller, s.BinHandler(f))
	}},
}

// stampingFace is a peering face whose view hides entries named secret*
// and stamps the rest with the caller it was built for.
var stampingFace = Face{ReadOnly: true, ViewFor: func(caller string) (View, bool) {
	return func(e Entry) (Entry, bool) {
		if strings.HasPrefix(e.Name, "secret") {
			return Entry{}, false
		}
		e = e.Clone()
		if e.Categories == nil {
			e.Categories = make(map[string]string)
		}
		e.Categories["seen-by"] = caller
		return e, true
	}, true
}}

var faceCases = []struct {
	name string
	face Face
	run  func(t *testing.T, s *Server, c *Client)
}{
	{"save find get delete watch", Face{}, func(t *testing.T, s *Server, c *Client) {
		ctx := context.Background()
		// XML-hostile, but inside what both encodings carry: raw control
		// bytes are the binary wire's alone (TestBinEntryRoundTrip).
		want := hostileEntry
		want.Description = "line\nbreak\ttab é☃ <no&nul>"
		if key, err := c.Save(ctx, want, time.Hour); err != nil || key != want.Key {
			t.Fatalf("save: key %q err %v", key, err)
		}
		entries, seq, err := c.FindSeq(ctx, Query{Name: "%"})
		if err != nil || len(entries) != 1 || seq == 0 || !entriesEqual(entries[0], want) {
			t.Fatalf("find: %+v seq %d err %v", entries, seq, err)
		}
		if got, found, err := c.Get(ctx, want.Key); err != nil || !found || !entriesEqual(got, want) {
			t.Fatalf("get: %+v found %v err %v", got, found, err)
		}
		changes, next, resync, err := c.Watch(ctx, 0, 0)
		if err != nil || resync || len(changes) != 1 || next != seq {
			t.Fatalf("watch: %d changes next %d resync %v err %v", len(changes), next, resync, err)
		}
		if changes[0].Op != OpAdd || !entriesEqual(changes[0].Entry, want) {
			t.Fatalf("watch change = %+v", changes[0])
		}
		if err := c.Delete(ctx, want.Key); err != nil {
			t.Fatalf("delete: %v", err)
		}
		if _, found, _ := c.Get(ctx, want.Key); found {
			t.Fatal("entry survived delete")
		}
	}},
	{"private face refuses foreign callers", Face{OwnHome: "home-a"}, func(t *testing.T, s *Server, c *Client) {
		ctx := context.Background()
		if _, err := c.Find(ctx, Query{}); !errors.Is(err, service.ErrForbidden) {
			t.Fatalf("find = %v, want ErrForbidden", err)
		}
		if _, err := c.Save(ctx, lampEntry(), time.Hour); !errors.Is(err, service.ErrForbidden) {
			t.Fatalf("save = %v, want ErrForbidden", err)
		}
		// The code the auth layer answers unauthenticated callers with
		// maps the same way on both wires.
		if err := binErrorOf("E_authTokenRequired", "x"); !errors.Is(err, service.ErrUnauthenticated) {
			t.Fatalf("E_authTokenRequired = %v, want ErrUnauthenticated", err)
		}
	}},
	{"read-only face refuses publication and replication", Face{ReadOnly: true}, func(t *testing.T, s *Server, c *Client) {
		ctx := context.Background()
		key := s.Save(Entry{Name: "keeper"}, time.Minute)
		if _, err := c.Save(ctx, Entry{Name: "writer"}, time.Minute); err == nil || !strings.Contains(err.Error(), "E_operatorMismatch") {
			t.Errorf("save = %v, want E_operatorMismatch", err)
		}
		if err := c.Delete(ctx, key); err == nil {
			t.Error("delete accepted")
		}
		if _, err := c.ReplSync(ctx); err == nil || !strings.Contains(err.Error(), "replication is private") {
			t.Errorf("repl_sync = %v, want refusal", err)
		}
		if s.Len() != 1 {
			t.Errorf("registry length = %d after refused writes, want 1", s.Len())
		}
		if got, err := c.Find(ctx, Query{}); err != nil || len(got) != 1 {
			t.Errorf("find = %d entries, err %v", len(got), err)
		}
	}},
	{"unmounted view refuses service", Face{ViewFor: func(string) (View, bool) { return nil, false }},
		func(t *testing.T, s *Server, c *Client) {
			if _, err := c.Find(context.Background(), Query{}); err == nil || !strings.Contains(err.Error(), "peering not enabled") {
				t.Fatalf("find = %v, want refusal", err)
			}
		}},
	{"view filters and stamps find", stampingFace, func(t *testing.T, s *Server, c *Client) {
		for _, name := range []string{"public-1", "secret-1", "public-2"} {
			s.Save(Entry{Name: name, AccessPoint: "http://h/" + name}, time.Minute)
		}
		got, err := c.Find(context.Background(), Query{})
		if err != nil || len(got) != 2 {
			t.Fatalf("find = %v, err %v; want the 2 public entries", got, err)
		}
		for _, e := range got {
			if strings.HasPrefix(e.Name, "secret") || e.Categories["seen-by"] != "home-b" {
				t.Errorf("entry %s leaked or unstamped: %v", e.Name, e.Categories)
			}
		}
	}},
	{"view filters get", stampingFace, func(t *testing.T, s *Server, c *Client) {
		ctx := context.Background()
		secret := s.Save(Entry{Name: "secret-9"}, time.Minute)
		public := s.Save(Entry{Name: "public-9"}, time.Minute)
		if _, found, err := c.Get(ctx, secret); err != nil || found {
			t.Errorf("secret entry visible (found=%v err=%v)", found, err)
		}
		if e, found, err := c.Get(ctx, public); err != nil || !found || e.Categories["seen-by"] != "home-b" {
			t.Errorf("public entry = %+v found=%v err=%v", e, found, err)
		}
	}},
	{"view watch filters deletes", stampingFace, func(t *testing.T, s *Server, c *Client) {
		ctx := context.Background()
		sk := s.Save(Entry{Name: "secret-d"}, time.Minute)
		pk := s.Save(Entry{Name: "public-d"}, time.Minute)
		_, next, _, err := c.Watch(ctx, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		s.Delete(sk)
		s.Delete(pk)
		changes, _, _, err := c.Watch(ctx, next, 0)
		if err != nil || len(changes) != 1 || changes[0].Op != OpDelete || changes[0].Entry.Name != "public-d" {
			t.Fatalf("delete stream = %v err %v, want only the public-d delete", changes, err)
		}
	}},
}

func TestFaces(t *testing.T) {
	for _, fc := range faceCases {
		t.Run(fc.name, func(t *testing.T) {
			for _, w := range wires {
				t.Run(w.name, func(t *testing.T) {
					s := NewServer()
					defer s.Close()
					fc.run(t, s, w.client(t, s, fc.face, "home-b"))
				})
			}
		})
	}
}

// TestViewHandlerWatchFilters runs over both wires: a view's watch stream
// carries only the visible change, and its cursor still covers the hidden
// one, so resuming from it replays nothing.
func TestViewHandlerWatchFilters(t *testing.T) {
	for _, w := range wires {
		t.Run(w.name, func(t *testing.T) {
			s := NewServer()
			defer s.Close()
			c := w.client(t, s, stampingFace, "home-b")
			ctx := context.Background()
			s.Save(Entry{Name: "secret-w"}, time.Minute)
			s.Save(Entry{Name: "public-w"}, time.Minute)
			changes, next, resync, err := c.Watch(ctx, 0, 0)
			if err != nil || resync || len(changes) != 1 || changes[0].Entry.Name != "public-w" {
				t.Fatalf("watch = %v resync %v err %v, want only public-w", changes, resync, err)
			}
			if next != s.Seq() {
				t.Fatalf("cursor %d, want %d: the hidden change must still be covered", next, s.Seq())
			}
			if changes, _, _, err = c.Watch(ctx, next, 0); err != nil || len(changes) != 0 {
				t.Fatalf("resumed watch = %v, %v", changes, err)
			}
		})
	}
}

// TestIneligibleBinaryAttemptAllocs pins the cost of a binuddi attempt
// the Dialer cannot run at zero: the record must not be encoded before
// the Dialer is ready for the authority — not in open mode (credentials
// without an identity), and not while the authority waits out its SOAP
// re-probe window.
func TestIneligibleBinaryAttemptAllocs(t *testing.T) {
	id, err := identity.Generate("home-a")
	if err != nil {
		t.Fatal(err)
	}
	armed := identity.NewAuth("home-a")
	if err := armed.SetIdentity(id); err != nil {
		t.Fatal(err)
	}
	// A memory network has no socket and this authority no in-process
	// binary endpoint: the first attempt fails to negotiate and opens
	// the re-probe window.
	reprobe := transport.NewMemNet().Dialer(armed)
	q := &request{op: opFind, query: Query{Name: "jini:%", Categories: map[string]string{"room": "den"}}}
	for name, d := range map[string]*transport.Dialer{
		"open":    transport.NewDialer(identity.NewAuth("home-a")),
		"reprobe": reprobe,
		"nil":     nil,
	} {
		c := &Client{URL: "http://nowhere.test/uddi", Dialer: d}
		attempt := func() {
			if _, done, err := c.callBinary(context.Background(), c.URL, q); done || err != nil {
				t.Fatalf("%s: callBinary done=%v err=%v, want the document path", name, done, err)
			}
		}
		attempt() // opens the re-probe window
		if got := testing.AllocsPerRun(200, attempt); got != 0 {
			t.Errorf("%s: %.1f allocs per ineligible attempt, want 0", name, got)
		}
	}
	if got := reprobe.ProtocolFor("http://nowhere.test/"); got != "soap" {
		t.Fatalf("reprobe dialer protocol %q, want soap", got)
	}
}

// Golden wire bytes for every registry operation on both encodings: the
// XML documents over HTTP and the binuddi records over the binary fast
// path. The XML bytes are the interop contract (and what the committed
// simulator findings were produced with); the binuddi bytes share the
// WAL's field encoding. Any refactor of the codecs must reproduce both
// transcripts exactly. Regenerate deliberately with
//
//	go test ./internal/uddi -run TestGoldenWireBytes -update
package uddi

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/transport"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire transcripts")

// wireLog collects one request/reply pair per operation.
type wireLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *wireLog) add(req, reply []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, "> %s\n< %s\n", strconv.Quote(string(req)), strconv.Quote(string(reply)))
}

func (l *wireLog) note(label string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(&l.buf, "# %s\n", label)
}

// recordingTransport logs each HTTP request and response body.
type recordingTransport struct{ log *wireLog }

func (rt recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(reply))
	rt.log.add(body, reply)
	return resp, nil
}

// goldenRegistry is the fixed registry every transcript starts from: a
// frozen clock (so lease deadlines are stable) and a known epoch.
func goldenRegistry(t *testing.T) *Server {
	t.Helper()
	s := NewManualServer()
	t.Cleanup(s.Close)
	s.SetClock(func() time.Time { return time.Unix(1_700_000_000, 0) })
	if err := s.SetEpoch(3, "http://leader.test/uddi"); err != nil {
		t.Fatal(err)
	}
	return s
}

// goldenScript drives all nine operations through c, labelling each
// exchange in log.
func goldenScript(t *testing.T, c *Client, log *wireLog) {
	t.Helper()
	ctx := context.Background()
	step := func(label string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	lamp := Entry{
		Key: "uuid:golden-1", Name: "x10:lamp-1",
		Description: `hall lamp <&> "one"`,
		AccessPoint: "http://gw.test/services/x10?a=1&b=2",
		TModel:      "X10Lamp",
		WSDL:        `<definitions name="X10Lamp"/>`,
		Categories:  map[string]string{"middleware": "x10", "room": "hall"},
	}
	vcr := Entry{Key: "uuid:golden-2", Name: "havi:vcr-1", AccessPoint: "http://gw.test/services/havi",
		TModel: "HaviVCR", Categories: map[string]string{"middleware": "havi"}}
	disc := Entry{Key: "uuid:golden-3", Name: "jini:laserdisc-1", AccessPoint: "http://gw.test/services/jini",
		TModel: "Laserdisc"}

	log.note("save_service")
	_, err := c.Save(ctx, lamp, time.Hour)
	step("save_service", err)
	log.note("save_services")
	_, err = c.SaveAll(ctx, []Entry{vcr, disc}, 2*time.Hour)
	step("save_services", err)
	log.note("get_serviceDetail")
	_, _, err = c.Get(ctx, lamp.Key)
	step("get_serviceDetail", err)
	log.note("find_service")
	_, _, err = c.FindSeq(ctx, Query{Name: "%:%", Categories: map[string]string{"middleware": "x10"}})
	step("find_service", err)
	log.note("delete_service")
	step("delete_service", c.Delete(ctx, disc.Key))
	log.note("watch")
	_, _, _, err = c.Watch(ctx, 0, 0)
	step("watch", err)
	log.note("watch with epoch")
	_, _, _, _, err = c.WatchEpoch(ctx, 1, 3, 250*time.Millisecond)
	step("watch with epoch", err)
	log.note("repl_status")
	_, err = c.ReplStatus(ctx)
	step("repl_status", err)
	log.note("repl_sync")
	_, err = c.ReplSync(ctx)
	step("repl_sync", err)
	log.note("repl_watch")
	_, err = c.ReplWatch(ctx, 0, 3, 250*time.Millisecond)
	step("repl_watch", err)
	log.note("repl_watch from a newer epoch")
	if _, err = c.ReplWatch(ctx, 0, 9, 0); err == nil {
		t.Fatal("repl_watch from a newer epoch was not fenced")
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s transcript changed:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

func TestGoldenWireBytes(t *testing.T) {
	t.Run("xml", func(t *testing.T) {
		s := goldenRegistry(t)
		srv := httptest.NewServer(goldenXMLFace(s))
		defer srv.Close()
		log := &wireLog{}
		c := &Client{URL: srv.URL + "/uddi", Dialer: &transport.Dialer{Transport: recordingTransport{log}}}
		goldenScript(t, c, log)
		checkGolden(t, "xml.txt", log.buf.Bytes())
	})

	t.Run("binuddi", func(t *testing.T) {
		s := goldenRegistry(t)
		id, err := identity.Generate("home-a")
		if err != nil {
			t.Fatal(err)
		}
		auth := identity.NewAuth("home-a")
		if err := auth.SetIdentity(id); err != nil {
			t.Fatal(err)
		}
		log := &wireLog{}
		face := goldenBinFace(s)
		bin := transport.NewBinServer(auth)
		bin.Handle("/uddi", transport.BinHandlerFunc(func(ctx context.Context, caller string, req *transport.BinRequest) *transport.BinResponse {
			resp := face.ServeBin(ctx, caller, req)
			log.add(req.Body, resp.Body)
			return resp
		}))
		defer bin.Close()
		const authority = "golden.test:1"
		transport.RegisterLocal(authority, bin)
		defer transport.UnregisterLocal(authority)
		d := transport.NewDialer(auth)
		defer d.Close()
		// No HTTP route exists to this authority: every operation must
		// have ridden the binary records.
		d.Transport = http.NewFileTransport(http.Dir(t.TempDir()))
		goldenScript(t, &Client{URL: "http://" + authority + "/uddi", Dialer: d}, log)
		checkGolden(t, "binuddi.txt", log.buf.Bytes())
	})
}

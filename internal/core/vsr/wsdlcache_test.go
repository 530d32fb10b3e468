package vsr

import (
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"homeconnect/internal/service"
	"homeconnect/internal/wsdl"
)

// sameAsParse fails unless parseWSDLCached agrees with wsdl.Parse on
// text, error and value alike.
func sameAsParse(t *testing.T, text string) {
	t.Helper()
	want, werr := wsdl.Parse([]byte(text))
	got, err := parseWSDLCached(text)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("error %v, wsdl.Parse says %v\ntext %q", err, werr, text)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwsdl.Parse gives %+v\ntext %q", got, want, text)
	}
}

// FuzzParseWSDLCached checks the cached decoder against wsdl.Parse on
// any text. Templates for the seed interfaces are stored first, so
// mutations of their documents meet a template; each input is then
// decoded twice (the second may hit whatever the first stored), and so
// is a copy with its last location value swapped for a fresh one, which
// hits a template whenever the input stored one.
func FuzzParseWSDLCached(f *testing.F) {
	var primers []string
	for _, it := range []service.Interface{lampDesc().Interface, vcrInterface()} {
		b, err := wsdl.Generate(it, "http://primer.test/"+it.Name)
		if err != nil {
			f.Fatal(err)
		}
		primers = append(primers, string(b))
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, p := range primers {
			sameAsParse(t, p)
		}
		sameAsParse(t, text)
		sameAsParse(t, text)
		if key, rest, ok := splitLocation(text); ok {
			if i := strings.IndexByte(rest, '"'); i >= 0 {
				sameAsParse(t, key+"http://fuzz.test:1/x"+rest[i:])
			}
		}
	})
}

// vcrInterface has every part type and documentation text that
// escapes, unlike the lamp.
func vcrInterface() service.Interface {
	return service.Interface{Name: "HaviVCR", Doc: `VCR <deck> & "tape"`, Operations: []service.Operation{
		{Name: "SetChannel", Doc: "tune", Output: service.KindBool, Inputs: []service.Parameter{
			{Name: "ch", Type: service.KindInt}, {Name: "label", Type: service.KindString}}},
		{Name: "Snapshot", Output: service.KindBytes},
		{Name: "Gain", Inputs: []service.Parameter{{Name: "db", Type: service.KindFloat}}, Output: service.KindFloat},
	}}
}

// churnTexts splits a generated document around its location value, so
// a fresh endpoint's document is a concatenation — the text a churned
// registration delivers, without paying Generate for it.
func churnTexts(t testing.TB) (head, tail string) {
	const marker = "http://marker.test/"
	b, err := wsdl.Generate(lampDesc().Interface, marker)
	if err != nil {
		t.Fatal(err)
	}
	head, tail, _ = strings.Cut(string(b), marker)
	return head, tail
}

// TestParseWSDLChurnUsesTemplate: documents that differ only in their
// endpoint decode from one template — correct, and without landing in
// the exact-text cache whose resets would evict stable interfaces.
func TestParseWSDLChurnUsesTemplate(t *testing.T) {
	head, tail := churnTexts(t)
	for i := 0; i < 2*maxWSDLCache; i++ {
		text := head + "http://10.0.0.1:" + strconv.Itoa(i) + "/services/jini:lamp-1" + tail
		sameAsParse(t, text)
		if i > 0 {
			wsdlCacheMu.Lock()
			_, exact := wsdlCache[text]
			wsdlCacheMu.Unlock()
			if exact {
				t.Fatalf("churned document %d went to the exact-text cache", i)
			}
		}
	}
}

// TestParseWSDLCachedConcurrent decodes churned and foreign documents
// from several goroutines at once, so the race detector sees both caches
// filled and read concurrently, and each result is checked.
func TestParseWSDLCachedConcurrent(t *testing.T) {
	head, tail := churnTexts(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				loc := "http://10.0.0." + strconv.Itoa(g) + ":" + strconv.Itoa(i%50) + "/x"
				if i%3 == 0 {
					loc += "?a=1&amp;b=2" // escaped: takes the exact-text path
				}
				text := head + loc + tail
				want, werr := wsdl.Parse([]byte(text))
				got, err := parseWSDLCached(text)
				if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%q: got %+v (%v), wsdl.Parse gives %+v (%v)", loc, got, err, want, werr)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkParseWSDLChurn decodes a registration's WSDL with a fresh
// endpoint every iteration, as the change stream and peer links do under
// endpoint churn.
func BenchmarkParseWSDLChurn(b *testing.B) {
	head, tail := churnTexts(b)
	buf := []byte(head + "http://10.0.0.1:")
	n := len(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = strconv.AppendInt(buf[:n], int64(i), 10)
		buf = append(buf, "/services/jini:lamp-1"...)
		buf = append(buf, tail...)
		doc, err := parseWSDLCached(string(buf))
		if err != nil || doc.Interface.Name != "Lamp" {
			b.Fatalf("parse: %v", err)
		}
	}
}

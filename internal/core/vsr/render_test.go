package vsr

import (
	"strconv"
	"sync"
	"testing"

	"homeconnect/internal/service"
	"homeconnect/internal/wsdl"
)

// sameAsGenerate fails unless renderWSDL agrees with wsdl.Generate on
// it and loc, text and error alike.
func sameAsGenerate(t *testing.T, it service.Interface, loc string) {
	t.Helper()
	want, werr := wsdl.Generate(it, loc)
	got, err := renderWSDL(it, loc)
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("error %v, wsdl.Generate says %v\ninterface %+v location %q", err, werr, it, loc)
	}
	if got != string(want) {
		t.Fatalf("rendered %q\nwsdl.Generate gives %q\ninterface %+v location %q", got, want, it, loc)
	}
}

// FuzzRenderWSDL checks the template renderer against wsdl.Generate. A
// fuzzed interface is rendered at two locations, each twice, so both the
// call that fills a template and the calls that reuse it are compared.
// A second interface shares the first one's name and doc but has one
// more operation, and is rendered in between: templates must not cross
// between interfaces Generate tells apart.
func FuzzRenderWSDL(f *testing.F) {
	f.Add("Lamp", "", "On", "", uint8(service.KindVoid), "", uint8(0), "http://10.0.0.1:80/s", "http://10.0.0.2:81/s")
	f.Add("HaviVCR", `VCR <deck> & "tape"`, "SetChannel", "tune", uint8(service.KindBool), "ch", uint8(service.KindInt),
		"http://h/x?a=1&b=2", `http://h/"quoted"`)
	f.Add("Tab", "doc", "Op", "", uint8(service.KindString), "in", uint8(service.KindString), "http://h/\tx", "")
	f.Add("Ünïcode", "é☃", "Öp", "ü", uint8(service.KindFloat), "ß", uint8(service.KindBytes), "http://h/é", "http://h/plain")
	f.Add("Empty", "", "Op", "", uint8(service.KindInt), "", uint8(0), "", "http://h/after-empty")
	f.Add("", "", "", "", uint8(0), "", uint8(0), "http://h/invalid", "http://h/invalid-2")
	f.Fuzz(func(t *testing.T, name, doc, opName, opDoc string, out uint8, inName string, inKind uint8, loc1, loc2 string) {
		op := service.Operation{Name: opName, Doc: opDoc, Output: service.Kind(out)}
		if inName != "" {
			op.Inputs = []service.Parameter{{Name: inName, Type: service.Kind(inKind)}}
		}
		it := service.Interface{Name: name, Doc: doc, Operations: []service.Operation{op}}
		other := service.Interface{Name: name, Doc: doc,
			Operations: []service.Operation{op, {Name: opName + "2", Output: service.KindVoid}}}
		for _, loc := range []string{loc1, loc1, loc2, loc2} {
			sameAsGenerate(t, it, loc)
			sameAsGenerate(t, other, loc)
		}
	})
}

// TestRenderWSDLConcurrent renders several interfaces at churning
// locations from several goroutines at once, so the race detector sees
// the template table filled and read concurrently; every result is
// checked against wsdl.Generate.
func TestRenderWSDLConcurrent(t *testing.T) {
	ifaces := []service.Interface{lampDesc().Interface, vcrInterface(),
		{Name: "Lamp", Operations: []service.Operation{{Name: "On", Output: service.KindVoid}}}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				it := ifaces[(g+i)%len(ifaces)]
				loc := "http://10.0.0." + strconv.Itoa(g) + ":" + strconv.Itoa(i) + "/x"
				if i%5 == 0 {
					loc += "?a=1&b=2" // needs escaping: takes wsdl.Generate
				}
				want, werr := wsdl.Generate(it, loc)
				got, err := renderWSDL(it, loc)
				if err != nil || werr != nil || got != string(want) {
					t.Errorf("%s at %q: rendered %q (%v), wsdl.Generate gives %q (%v)", it.Name, loc, got, err, want, werr)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkEntryForChurn builds a registration's entry with a fresh
// endpoint every iteration, as a registrar and a peer importer do under
// endpoint churn.
func BenchmarkEntryForChurn(b *testing.B) {
	desc := lampDesc()
	buf := []byte("http://10.0.0.1:")
	n := len(buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = strconv.AppendInt(buf[:n], int64(i), 10)
		buf = append(buf, "/services/jini:lamp-1"...)
		e, err := EntryFor(desc, string(buf))
		if err != nil || e.TModel != "Lamp" {
			b.Fatalf("EntryFor: %v", err)
		}
	}
}

// Allocation-regression guards for the codec hot path. The PR that
// introduced the pooled encoder and the xmltree scanner cut EncodeCall
// from 8 allocs/op to 1 and DecodeCall from 72 to 15; these tests pin a
// ceiling halfway back so a regression past the "≥50% better than seed"
// line fails loudly instead of rotting silently.
package soap

import (
	"context"
	"errors"
	"testing"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

func guardAllocs(t *testing.T, name string, limit float64, fn func()) {
	t.Helper()
	fn() // warm pools so the steady state is measured
	if got := testing.AllocsPerRun(200, fn); got > limit {
		t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, got, limit)
	}
}

func TestEncodeCallAllocs(t *testing.T) {
	call := Call{
		Namespace: "urn:homeconnect:bench:svc",
		Operation: "SetLevel",
		Args: []Arg{
			{Name: "level", Value: service.IntValue(42)},
			{Name: "fade", Value: service.BoolValue(true)},
		},
	}
	// Seed: 8 allocs/op. Now: 1 (the returned envelope copy).
	guardAllocs(t, "EncodeCall", 4, func() {
		if _, err := EncodeCall(call); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDecodeCallAllocs(t *testing.T) {
	data, err := EncodeCall(Call{
		Namespace: "urn:homeconnect:bench:svc",
		Operation: "SetLevel",
		Args: []Arg{
			{Name: "level", Value: service.IntValue(42)},
			{Name: "fade", Value: service.BoolValue(true)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Seed: 72 allocs/op. Now: 15 (the returned tree and args).
	guardAllocs(t, "DecodeCall", 36, func() {
		if _, err := DecodeCall(data); err != nil {
			t.Fatal(err)
		}
	})
}

func TestDecodeResponseAllocs(t *testing.T) {
	data, err := EncodeResponse("urn:homeconnect:bench:svc", "SetLevel", service.IntValue(7))
	if err != nil {
		t.Fatal(err)
	}
	guardAllocs(t, "DecodeResponse", 30, func() {
		if _, fault, err := DecodeResponse(data); err != nil || fault != nil {
			t.Fatalf("%v %v", fault, err)
		}
	})
}

// TestIneligibleBinaryAttemptAllocs pins the cost of a binary attempt
// the Dialer cannot run at zero: the call must not be encoded before the
// Dialer is ready for the authority. Open mode (credentials without an
// identity, the gateways of every open-mode federation) and an authority
// waiting out its SOAP re-probe window are both ineligible.
func TestIneligibleBinaryAttemptAllocs(t *testing.T) {
	call := Call{
		Namespace: "urn:homeconnect:bench:svc",
		Operation: "SetLevel",
		Args:      []Arg{{Name: "level", Value: service.IntValue(42)}},
	}
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
	for name, d := range map[string]*transport.Dialer{
		"open":    transport.NewDialer(identity.NewAuth("home-a")),
		"reprobe": reprobe,
		"nil":     nil,
	} {
		c := &Client{URL: "http://nowhere.test/services/bench:svc", Dialer: d}
		guardAllocs(t, name, 0, func() {
			_, err := c.callBinary(context.Background(), "urn:homeconnect:bench:svc#SetLevel", call)
			if !errors.Is(err, transport.ErrBinaryUnavailable) {
				t.Fatalf("%s: callBinary = %v, want ErrBinaryUnavailable", name, err)
			}
		})
	}
	if got := reprobe.ProtocolFor("http://nowhere.test/"); got != "soap" {
		t.Fatalf("reprobe dialer protocol %q, want soap", got)
	}
}

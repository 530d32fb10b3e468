// Regression tests for hostile length and count prefixes in the binuddi
// records. Both faces decode bytes from other processes, and nothing
// between the socket and the registry recovers from a panic, so a
// crafted length must come back as a decode error.
package uddi

import (
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"testing"

	"homeconnect/internal/transport"
)

// A string length near 2^63 used to overflow the bounds check's sum and
// panic in the slice expression.
func TestWALReaderRejectsOverflowingLength(t *testing.T) {
	b := binary.AppendUvarint(nil, math.MaxInt64)
	r := &walReader{b: append(b, "short"...)}
	if s := r.str(); s != "" || r.err == nil {
		t.Fatalf("str() = %q, err %v; want a range error", s, r.err)
	}
}

// The same length inside a find record on a trusted peer's face.
func TestBinaryFaceSurvivesOverflowingLength(t *testing.T) {
	s := NewServer()
	defer s.Close()
	req := []byte{binUDDIVersion, binUDDIFind}
	req = binary.AppendUvarint(req, math.MaxInt64)
	req = append(req, "name"...)
	resp := binServe(s, Face{ReadOnly: true}, "home-b", req)
	if resp.Status != http.StatusBadRequest {
		t.Fatalf("status %d, want %d", resp.Status, http.StatusBadRequest)
	}
}

// A reply count above MaxInt64 used to convert to a negative int, pass
// the upper-bound check and panic in make.
func TestClientSurvivesHugeReplyCount(t *testing.T) {
	reply := []byte{binUDDIVersion, binUDDIKeys}
	reply = binary.AppendUvarint(reply, math.MaxInt64+2)
	c := binaryClient(t, "home-a", transport.BinHandlerFunc(
		func(context.Context, string, *transport.BinRequest) *transport.BinResponse {
			return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType, Body: reply}
		}))
	if _, err := c.SaveAll(context.Background(), []Entry{{Name: "x"}}, 0); err == nil {
		t.Fatal("huge key count decoded")
	}
}

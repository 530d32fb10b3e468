package uddi

import (
	"errors"
	"reflect"
	"testing"

	"homeconnect/internal/xmltree"
)

// decodeRequest runs the faces' request decoding on one request: the
// envelope names the operation, then its parameters decode.
func decodeRequest(binary bool, data []byte) (*request, error) {
	if binary {
		code, r, err := binReaderFor(data)
		if err != nil || opsByCode[code] == nil {
			return nil, errUnknownOp
		}
		q := &request{op: opsByCode[code]}
		return q, readBinRequest(r, q)
	}
	root, err := xmltree.Parse(data)
	if err != nil {
		return nil, err
	}
	o := opsByName[root.Name.Local]
	if o == nil {
		return nil, errUnknownOp
	}
	q := &request{op: o}
	return q, readXMLRequest(root, q)
}

var errUnknownOp = errors.New("unknown operation")

// exactlySized fails unless a binuddi encoder sized its record exactly:
// it allocated once, at the final length.
func exactlySized(t *testing.T, b []byte) []byte {
	t.Helper()
	if len(b) != cap(b) {
		t.Fatalf("binuddi record is %d bytes in a %d-byte allocation", len(b), cap(b))
	}
	return b
}

// sameRequest compares two decoded requests. save_service rides
// save_services' record on the binary wire, so operations compare by the
// record that carries them.
func sameRequest(a, b *request) bool {
	if a.op.code != b.op.code {
		return false
	}
	x, y := *a, *b
	x.op, y.op = nil, nil
	return reflect.DeepEqual(x, y)
}

// FuzzRegistryRequest feeds both encodings' request decoders. Neither
// may panic. A request that decodes survives the binary encoding
// exactly; the XML encoding may normalize it once (leaf text is trimmed,
// characters XML cannot carry are replaced), after which both encodings
// decode it to the same value.
func FuzzRegistryRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, binary bool, data []byte) {
		q, err := decodeRequest(binary, data)
		if err != nil {
			return
		}
		qb, err := decodeRequest(true, exactlySized(t, encodeBinRequest(q)))
		if err != nil || !sameRequest(qb, q) {
			t.Fatalf("binary round trip changed the request (err %v):\n%+v\n%+v", err, q, qb)
		}
		qx, err := decodeRequest(false, encodeXMLRequest(q))
		if err != nil {
			return
		}
		if again, err := decodeRequest(false, encodeXMLRequest(qx)); err != nil || !sameRequest(again, qx) {
			t.Fatalf("XML round trip is not stable (err %v):\n%+v\n%+v", err, qx, again)
		}
		if viaBin, err := decodeRequest(true, encodeBinRequest(qx)); err != nil || !sameRequest(viaBin, qx) {
			t.Fatalf("encodings disagree (err %v):\nxml    %+v\nbinary %+v", err, qx, viaBin)
		}
	})
}

// decodeReply runs a client's reply decoding for operation o: the XML
// document's shape, or the binuddi record's.
func decodeReply(binary bool, o *op, data []byte) (reply, error) {
	if binary {
		return decodeBinReply(o.binReply, data)
	}
	root, err := xmltree.Parse(data)
	if err != nil {
		return reply{}, err
	}
	return decodeXMLReply(o.xmlReply, root)
}

func encodeReply(binary bool, o *op, p *reply) []byte {
	if binary {
		return encodeBinReply(o.binReply, p)
	}
	return encodeXMLReply(o.xmlReply, p)
}

// FuzzRegistryReply feeds both encodings' reply decoders, for the reply
// shape of the operation the index byte picks from the op table. Neither
// may panic. A reply that decodes survives its own encoder: exactly on
// the binary wire; the XML encoding may normalize it once (leaf text is
// trimmed, characters XML cannot carry are replaced), after which it
// round-trips exactly.
func FuzzRegistryReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, binary bool, opIndex uint8, data []byte) {
		o := ops[int(opIndex)%len(ops)]
		p, err := decodeReply(binary, o, data)
		if err != nil {
			return
		}
		if !binary {
			if p, err = decodeReply(false, o, encodeReply(false, o, &p)); err != nil {
				t.Fatalf("%s reply does not survive its XML encoding: %v", o.name, err)
			}
		}
		enc := encodeReply(binary, o, &p)
		if binary {
			exactlySized(t, enc)
		}
		again, err := decodeReply(binary, o, enc)
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("%s reply round trip changed it (binary %v, err %v):\n%+v\n%+v", o.name, binary, err, p, again)
		}
	})
}

// TestReplyRefusesInvalidUTF8: the XML reply decoder refuses a document
// holding invalid UTF-8, as encoding/xml does, rather than decoding raw
// bytes that its encoder would rewrite to U+FFFD. The document is the
// FuzzRegistryReply seed xml-repl_status-invalid-utf8.
func TestReplyRefusesInvalidUTF8(t *testing.T) {
	if p, err := decodeReply(false, opReplStatus, []byte("<replStatus leader=\"\xfd\"/>")); err == nil {
		t.Fatalf("decoded %+v, want an error", p)
	}
}

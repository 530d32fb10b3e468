// Binary-native registry records (binuddi): the framework-internal
// encoding of the registry operations for the session-keyed fast path.
// Between framework-owned endpoints that negotiated a binary session,
// each operation in the op table (ops.go) rides a compact WAL-style
// record — version byte, op byte, uvarint lengths — inside a MAC'd
// frame, skipping XML encode/escape/parse entirely. Registry traffic
// (watch rounds above all) is dominated by document encoding, so this is
// where the fast path earns its latency target. The XML documents stay
// byte-identical for HTTP callers; a client whose binary lane is not
// negotiated sends those instead.
//
// The record grammar reuses the WAL's field encoding (appendWALString /
// walReader), so an entry encodes identically in the journal on disk and
// on the wire.
package uddi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"

	"homeconnect/internal/service"
	"homeconnect/internal/transport"
)

// BinContentType marks a binuddi request or response inside a fast-path
// frame.
const BinContentType = "application/x-homeconnect-binuddi"

// binUDDIVersion versions the record grammar; a decoder seeing a higher
// version refuses, and the client falls back to XML.
const binUDDIVersion = 1

// Request records.
const (
	binUDDISaveAll = 'S'
	binUDDIDelete  = 'D'
	binUDDIFind    = 'F'
	binUDDIGet     = 'G'
	binUDDIWatch   = 'W'
	// Replication requests (private repository face only; see replica.go).
	binUDDIReplSync   = 'Y'
	binUDDIReplWatch  = 'V'
	binUDDIReplStatus = 'Q'
)

// Response records.
const (
	binUDDIKeys    = 'K'
	binUDDIEntries = 'L'
	binUDDIChanges = 'C'
	binUDDIError   = 'E' // code, info — the dispositionReport twin
	// Replication responses.
	binUDDIReplState   = 'R'
	binUDDIReplChange  = 'H'
	binUDDIReplStatusR = 'T'
)

// param is one request parameter. Each op lists its parameters in each
// encoding's wire order; the comments give the binary form, xmlcodec.go
// the XML one.
type param uint8

const (
	pServices    param = iota // uvarint n, n × entry
	pService                  // XML only: binary saves always carry a list
	pTTL                      // uvarint milliseconds
	pKey                      // string
	pQuery                    // name, tModel, uvarint n, n × (key, value)
	pSince                    // uvarint
	pTimeout                  // uvarint milliseconds
	pEpoch                    // uvarint
	pEpochAlways              // XML only: the epoch, written even when zero
)

// field is one reply value. A reply shape lists its fields in wire order.
type field uint8

const (
	fNone          field = iota
	fKeys                // uvarint n, n × key
	fEntries             // uvarint n, n × entry
	fLeased              // uvarint n, n × (uvarint deadline ms, entry)
	fChanges             // uvarint n, n × (uvarint seq, op byte, entry)
	fLeasedChanges       // uvarint n, n × (uvarint seq, op byte, uvarint deadline ms, entry)
	fSeq                 // uvarint
	fResync              // bool byte
	fEpoch               // uvarint
	fLeader              // string
	fRole                // string
	fReplicaOf           // string
	fOK                  // XML only: the constant result="ok"
)

// binShape is a binary reply record: its op byte and fields.
type binShape struct {
	code   byte
	fields []field
}

var (
	binKeys        = binShape{binUDDIKeys, []field{fKeys}}
	binEntries     = binShape{binUDDIEntries, []field{fSeq, fEntries}}
	binChanges     = binShape{binUDDIChanges, []field{fSeq, fResync, fEpoch, fChanges}}
	binReplStatus  = binShape{binUDDIReplStatusR, []field{fSeq, fEpoch, fLeader, fRole, fReplicaOf}}
	binReplState   = binShape{binUDDIReplState, []field{fSeq, fEpoch, fLeader, fLeased}}
	binReplChanges = binShape{binUDDIReplChange, []field{fSeq, fResync, fEpoch, fLeader, fLeasedChanges}}
)

// maxMillis is the largest millisecond count a time.Duration holds.
const maxMillis = math.MaxInt64 / int64(time.Millisecond)

// appendBinEntry appends one entry in WAL field order (minus the
// journal-only expiry stamp).
func appendBinEntry(b []byte, e *Entry) []byte {
	b = appendWALString(b, e.Key)
	b = appendWALString(b, e.Name)
	b = appendWALString(b, e.Description)
	b = appendWALString(b, e.AccessPoint)
	b = appendWALString(b, e.TModel)
	b = appendWALString(b, e.WSDL)
	return appendBinPairs(b, e.Categories)
}

// appendBinPairs appends a string map, pairs sorted by key so identical
// maps encode identically.
func appendBinPairs(b []byte, m map[string]string) []byte {
	b = binary.AppendUvarint(b, uint64(len(m)))
	var small [8]string // category bags are small: sort them on the stack
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = appendWALString(b, k)
		b = appendWALString(b, m[k])
	}
	return b
}

// Encoded sizes, so the request and reply encoders allocate their
// record once at its final length.

func uvarintSize(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func walStringSize(s string) int { return uvarintSize(uint64(len(s))) + len(s) }

// binEntrySize is the length appendBinEntry appends for e.
func binEntrySize(e *Entry) int {
	return walStringSize(e.Key) + walStringSize(e.Name) + walStringSize(e.Description) +
		walStringSize(e.AccessPoint) + walStringSize(e.TModel) + walStringSize(e.WSDL) +
		binPairsSize(e.Categories)
}

// binPairsSize is the length appendBinPairs appends for m.
func binPairsSize(m map[string]string) int {
	n := uvarintSize(uint64(len(m)))
	for k, v := range m {
		n += walStringSize(k) + walStringSize(v)
	}
	return n
}

func decodeBinEntry(r *walReader) Entry {
	var e Entry
	e.Key = r.str()
	e.Name = r.str()
	e.Description = r.str()
	e.AccessPoint = r.str()
	e.TModel = r.str()
	e.WSDL = r.str()
	e.Categories = decodeBinPairs(r)
	return e
}

// decodeBinPairs reads a string map; nil when empty.
func decodeBinPairs(r *walReader) map[string]string {
	n := r.count()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n && r.err == nil; i++ {
		k := r.str()
		m[k] = r.str()
	}
	return m
}

func appendMillis(b []byte, d time.Duration) []byte {
	return binary.AppendUvarint(b, uint64(d/time.Millisecond))
}

func (r *walReader) millis() time.Duration {
	v := r.uvarint()
	if r.err == nil && v > uint64(maxMillis) {
		r.err = fmt.Errorf("uddi: duration %dms out of range", v)
		return 0
	}
	return time.Duration(v) * time.Millisecond
}

// deadlineMillis is a lease deadline on the binary wire: 0 for none.
func deadlineMillis(t time.Time) uint64 {
	if t.IsZero() {
		return 0
	}
	return uint64(t.UnixMilli())
}

// deadlineFromMillis inverts deadlineMillis: 0 is no deadline, and so is
// a count naming the zero instant, which deadlineMillis writes as 0.
func deadlineFromMillis(ms uint64) time.Time {
	t := time.UnixMilli(int64(ms))
	if ms == 0 || t.IsZero() {
		return time.Time{}
	}
	return t
}

// binReaderFor validates the version/op header and positions a reader
// past it.
func binReaderFor(data []byte) (op byte, r *walReader, err error) {
	if len(data) < 2 {
		return 0, nil, fmt.Errorf("uddi: short binary record")
	}
	if data[0] != binUDDIVersion {
		return 0, nil, fmt.Errorf("uddi: unknown binary record version %d", data[0])
	}
	return data[1], &walReader{b: data, off: 2}, nil
}

// --- requests -----------------------------------------------------------

func encodeBinRequest(q *request) []byte {
	b := make([]byte, 0, binRequestSize(q))
	b = append(b, binUDDIVersion, q.op.code)
	for _, p := range q.op.bin {
		switch p {
		case pServices:
			b = binary.AppendUvarint(b, uint64(len(q.entries)))
			for i := range q.entries {
				b = appendBinEntry(b, &q.entries[i])
			}
		case pTTL:
			b = appendMillis(b, q.ttl)
		case pKey:
			b = appendWALString(b, q.key)
		case pQuery:
			b = appendWALString(b, q.query.Name)
			b = appendWALString(b, q.query.TModel)
			b = appendBinPairs(b, q.query.Categories)
		case pSince:
			b = binary.AppendUvarint(b, q.since)
		case pTimeout:
			b = appendMillis(b, q.timeout)
		case pEpoch:
			b = binary.AppendUvarint(b, q.epoch)
		}
	}
	return b
}

// binRequestSize is the length encodeBinRequest encodes q to.
func binRequestSize(q *request) int {
	n := 2
	for _, p := range q.op.bin {
		switch p {
		case pServices:
			n += uvarintSize(uint64(len(q.entries)))
			for i := range q.entries {
				n += binEntrySize(&q.entries[i])
			}
		case pTTL:
			n += uvarintSize(uint64(q.ttl / time.Millisecond))
		case pKey:
			n += walStringSize(q.key)
		case pQuery:
			n += walStringSize(q.query.Name) + walStringSize(q.query.TModel) + binPairsSize(q.query.Categories)
		case pSince:
			n += uvarintSize(q.since)
		case pTimeout:
			n += uvarintSize(uint64(q.timeout / time.Millisecond))
		case pEpoch:
			n += uvarintSize(q.epoch)
		}
	}
	return n
}

// readBinRequest decodes q.op's parameters from r, positioned past the
// record header.
func readBinRequest(r *walReader, q *request) error {
	for _, p := range q.op.bin {
		switch p {
		case pServices:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				q.entries = append(q.entries, decodeBinEntry(r))
			}
		case pTTL:
			q.ttl = r.millis()
		case pKey:
			q.key = r.str()
		case pQuery:
			q.query.Name = r.str()
			q.query.TModel = r.str()
			q.query.Categories = decodeBinPairs(r)
		case pSince:
			q.since = r.uvarint()
		case pTimeout:
			q.timeout = r.millis()
		case pEpoch:
			q.epoch = r.uvarint()
		}
	}
	return r.err
}

// --- replies ------------------------------------------------------------

func encodeBinReply(sh binShape, p *reply) []byte {
	b := make([]byte, 0, binReplySize(sh, p))
	b = append(b, binUDDIVersion, sh.code)
	for _, f := range sh.fields {
		switch f {
		case fKeys:
			b = binary.AppendUvarint(b, uint64(len(p.keys)))
			for _, k := range p.keys {
				b = appendWALString(b, k)
			}
		case fEntries, fLeased:
			b = binary.AppendUvarint(b, uint64(len(p.entries)))
			for i := range p.entries {
				if f == fLeased {
					b = binary.AppendUvarint(b, deadlineMillis(p.deadlines[i]))
				}
				b = appendBinEntry(b, &p.entries[i])
			}
		case fChanges, fLeasedChanges:
			b = binary.AppendUvarint(b, uint64(len(p.changes)))
			for i := range p.changes {
				c := &p.changes[i]
				b = binary.AppendUvarint(b, c.Seq)
				b = append(b, changeOpWAL(c.Op))
				if f == fLeasedChanges {
					b = binary.AppendUvarint(b, deadlineMillis(c.Expires))
				}
				b = appendBinEntry(b, &c.Entry)
			}
		case fSeq:
			b = binary.AppendUvarint(b, p.seq)
		case fResync:
			if p.resync {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case fEpoch:
			b = binary.AppendUvarint(b, p.epoch)
		case fLeader:
			b = appendWALString(b, p.leader)
		case fRole:
			b = appendWALString(b, p.role)
		case fReplicaOf:
			b = appendWALString(b, p.replicaOf)
		}
	}
	return b
}

// binReplySize is the length encodeBinReply encodes p to.
func binReplySize(sh binShape, p *reply) int {
	n := 2
	for _, f := range sh.fields {
		switch f {
		case fKeys:
			n += uvarintSize(uint64(len(p.keys)))
			for _, k := range p.keys {
				n += walStringSize(k)
			}
		case fEntries, fLeased:
			n += uvarintSize(uint64(len(p.entries)))
			for i := range p.entries {
				if f == fLeased {
					n += uvarintSize(deadlineMillis(p.deadlines[i]))
				}
				n += binEntrySize(&p.entries[i])
			}
		case fChanges, fLeasedChanges:
			n += uvarintSize(uint64(len(p.changes)))
			for i := range p.changes {
				c := &p.changes[i]
				n += uvarintSize(c.Seq) + 1
				if f == fLeasedChanges {
					n += uvarintSize(deadlineMillis(c.Expires))
				}
				n += binEntrySize(&c.Entry)
			}
		case fSeq:
			n += uvarintSize(p.seq)
		case fResync:
			n++
		case fEpoch:
			n += uvarintSize(p.epoch)
		case fLeader:
			n += walStringSize(p.leader)
		case fRole:
			n += walStringSize(p.role)
		case fReplicaOf:
			n += walStringSize(p.replicaOf)
		}
	}
	return n
}

// decodeBinReply decodes a binary reply of shape sh; an error record
// becomes its typed error.
func decodeBinReply(sh binShape, data []byte) (reply, error) {
	var p reply
	code, r, err := binReaderFor(data)
	if err != nil {
		return p, err
	}
	if code == binUDDIError {
		errCode, info := r.str(), r.str()
		if r.err != nil {
			return p, r.err
		}
		return p, binErrorOf(errCode, info)
	}
	if code != sh.code {
		return p, fmt.Errorf("uddi: binary response record %q, want %q", code, sh.code)
	}
	for _, f := range sh.fields {
		switch f {
		case fKeys:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				p.keys = append(p.keys, r.str())
			}
		case fEntries, fLeased:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				if f == fLeased {
					p.deadlines = append(p.deadlines, deadlineFromMillis(r.uvarint()))
				}
				p.entries = append(p.entries, decodeBinEntry(r))
			}
		case fChanges, fLeasedChanges:
			n := r.count()
			for i := 0; i < n && r.err == nil; i++ {
				c := Change{Seq: r.uvarint(), Op: walOpChange(r.byte())}
				if f == fLeasedChanges {
					c.Expires = deadlineFromMillis(r.uvarint())
				}
				c.Entry = decodeBinEntry(r)
				p.changes = append(p.changes, c)
			}
		case fSeq:
			p.seq = r.uvarint()
		case fResync:
			p.resync = r.byte() != 0
		case fEpoch:
			p.epoch = r.uvarint()
		case fLeader:
			p.leader = r.str()
		case fRole:
			p.role = r.str()
		case fReplicaOf:
			p.replicaOf = r.str()
		}
	}
	if r.err != nil {
		return reply{}, r.err
	}
	return p, nil
}

// binError renders a refusal as an error record.
func binError(ref *refusal) *transport.BinResponse {
	b := []byte{binUDDIVersion, binUDDIError}
	b = appendWALString(b, ref.code)
	return &transport.BinResponse{Status: ref.status, ContentType: BinContentType,
		Body: appendWALString(b, ref.info)}
}

// binErrorOf maps a registry refusal to a typed error. It is the single
// mapping both wires use: the XML client feeds it dispositionReport
// code/info, the binary client a decoded error record.
func binErrorOf(code, info string) error {
	msg := fmt.Sprintf("uddi: %s: %s", code, info)
	switch code {
	case "E_authTokenRequired":
		return &authError{msg: msg, kind: service.ErrUnauthenticated}
	case "E_userMismatch":
		return &authError{msg: msg, kind: service.ErrForbidden}
	case "E_notLeader":
		return &notLeaderError{msg: msg, leader: leaderHintIn(info)}
	case "E_staleEpoch":
		return fmt.Errorf("%s: %w", msg, ErrStaleEpoch)
	}
	return fmt.Errorf("%s", msg)
}

// authError is a registry auth refusal: the server's message verbatim,
// unwrapping to the matching service sentinel for errors.Is.
type authError struct {
	msg  string
	kind error
}

func (e *authError) Error() string { return e.msg }

func (e *authError) Unwrap() error { return e.kind }

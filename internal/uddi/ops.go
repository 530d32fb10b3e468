// ops.go is the registry's operation table and its one serve path. Each
// operation is a single row: its name on each wire, the policy class the
// serve path applies to it, its parameters in each encoding's wire order,
// its reply shapes and its store call. Both faces — XML documents over
// HTTP and binuddi records over the binary fast path — decode into one
// request value, run the same serve function, and encode one reply value,
// so every registry rule exists once, whatever the encoding. Adding an
// operation is one row here (plus a codec case only if it carries a new
// kind of parameter or reply field).
package uddi

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"homeconnect/internal/core/identity"
	"homeconnect/internal/service"
	"homeconnect/internal/transport"
	"homeconnect/internal/xmltree"
)

// op is one registry operation.
type op struct {
	name  string // XML request element
	code  byte   // binuddi request record
	write bool   // publication: refused on read-only faces and on replicas
	repl  bool   // replication: full entries with their lease deadlines, so private to the repository face
	// xml and bin list the request's parameters in each encoding's order.
	xml, bin []param
	xmlReply xmlShape
	binReply binShape
	store    func(s *Server, ctx context.Context, q request) (reply, *refusal)
}

// request is one registry operation decoded from either encoding.
type request struct {
	op      *op
	entries []Entry
	ttl     time.Duration
	key     string
	query   Query
	since   uint64
	epoch   uint64
	timeout time.Duration
}

// reply is one operation's result, in either encoding. seq is the
// journal position: find's fence, a watch's next cursor, a replication
// node's position.
type reply struct {
	keys      []string
	entries   []Entry
	deadlines []time.Time // lease deadlines, parallel to entries (repl_sync)
	changes   []Change
	seq       uint64
	epoch     uint64
	resync    bool
	leader    string
	role      string
	replicaOf string
}

// refusal is a registry error in wire-neutral form; each encoding renders
// it (dispositionReport or error record) under the HTTP status its XML
// face answers with.
type refusal struct {
	status     int
	code, info string
}

func badRequest(err error) *refusal {
	return &refusal{http.StatusBadRequest, "E_fatalError", err.Error()}
}

var (
	opSaveAll = &op{name: "save_services", code: binUDDISaveAll, write: true,
		xml: []param{pTTL, pServices}, bin: []param{pTTL, pServices},
		xmlReply: xmlKeys, binReply: binKeys, store: serveSave}
	// save_service is the single-entry form. On the binary wire it is a
	// save_services record of one entry, which that row decodes.
	opSave = &op{name: "save_service", code: binUDDISaveAll, write: true,
		xml: []param{pService, pTTL}, bin: []param{pTTL, pServices},
		xmlReply: xmlKeys, binReply: binKeys, store: serveSave}
	opDelete = &op{name: "delete_service", code: binUDDIDelete, write: true,
		xml: []param{pKey}, bin: []param{pKey},
		xmlReply: xmlOK, binReply: binKeys, store: serveDelete}
	opFind = &op{name: "find_service", code: binUDDIFind,
		xml: []param{pQuery}, bin: []param{pQuery},
		xmlReply: xmlList, binReply: binEntries, store: serveFind}
	opGet = &op{name: "get_serviceDetail", code: binUDDIGet,
		xml: []param{pKey}, bin: []param{pKey},
		xmlReply: xmlDetail, binReply: binEntries, store: serveGet}
	opWatch = &op{name: "watch", code: binUDDIWatch,
		xml: []param{pSince, pTimeout, pEpoch}, bin: []param{pSince, pTimeout, pEpoch},
		xmlReply: xmlChanges, binReply: binChanges, store: serveWatch}
	opReplStatus = &op{name: "repl_status", code: binUDDIReplStatus, repl: true,
		xmlReply: xmlReplStatus, binReply: binReplStatus, store: serveReplStatus}
	opReplSync = &op{name: "repl_sync", code: binUDDIReplSync, repl: true,
		xmlReply: xmlReplState, binReply: binReplState, store: serveReplSync}
	opReplWatch = &op{name: "repl_watch", code: binUDDIReplWatch, repl: true,
		xml: []param{pSince, pEpochAlways, pTimeout}, bin: []param{pSince, pTimeout, pEpoch},
		xmlReply: xmlReplChanges, binReply: binReplChanges, store: serveReplWatch}

	// ops is the table. Where two rows share a binary record, the first
	// one decodes it.
	ops = []*op{opSaveAll, opSave, opDelete, opFind, opGet, opWatch, opReplStatus, opReplSync, opReplWatch}

	opsByName = make(map[string]*op, len(ops))
	opsByCode = make(map[byte]*op, len(ops))
)

func init() {
	for _, o := range ops {
		opsByName[o.name] = o
		if opsByCode[o.code] == nil {
			opsByCode[o.code] = o
		}
	}
}

func serveSave(s *Server, _ context.Context, q request) (reply, *refusal) {
	if len(q.entries) == 0 {
		return reply{}, badRequest(fmt.Errorf("%s without service", q.op.name))
	}
	for _, e := range q.entries {
		if e.Name == "" {
			return reply{}, badRequest(fmt.Errorf("uddi: service without name"))
		}
	}
	return reply{keys: s.SaveAll(q.entries, q.ttl)}, nil
}

func serveDelete(s *Server, _ context.Context, q request) (reply, *refusal) {
	if q.key == "" {
		return reply{}, &refusal{http.StatusBadRequest, "E_invalidKeyPassed", "delete_service without serviceKey"}
	}
	s.Delete(q.key)
	return reply{}, nil
}

func serveFind(s *Server, _ context.Context, q request) (reply, *refusal) {
	// Journal position read before the scan: any change the scan might
	// have missed has a higher sequence number, so clients can fence
	// cache fills against concurrent mutations.
	seq := s.Seq()
	return reply{seq: seq, entries: s.Find(q.query)}, nil
}

func serveGet(s *Server, _ context.Context, q request) (reply, *refusal) {
	var p reply
	if e, ok := s.Get(q.key); ok {
		p.entries = []Entry{e}
	}
	return p, nil
}

func serveWatch(s *Server, ctx context.Context, q request) (reply, *refusal) {
	changes, next, epoch, resync, err := s.WatchChangesEpoch(ctx, q.since, q.epoch, q.timeout, false)
	if err != nil {
		// The client went away mid-poll.
		return reply{}, &refusal{http.StatusRequestTimeout, "E_fatalError", err.Error()}
	}
	return reply{changes: changes, seq: next, epoch: epoch, resync: resync}, nil
}

func serveReplStatus(s *Server, _ context.Context, _ request) (reply, *refusal) {
	st := s.replStatusNow()
	return reply{seq: st.Seq, epoch: st.Epoch, leader: st.Leader, role: st.Role, replicaOf: st.ReplicaOf}, nil
}

func serveReplSync(s *Server, _ context.Context, _ request) (reply, *refusal) {
	var p reply
	p.entries, p.deadlines, p.seq, p.epoch, p.leader = s.ReplState()
	return p, nil
}

func serveReplWatch(s *Server, ctx context.Context, q request) (reply, *refusal) {
	// The requester's epoch fences a deposed leader: a replica that has
	// seen a newer regime must not be fed this one.
	if epoch, leader := s.Epoch(); q.epoch > epoch {
		return reply{}, &refusal{http.StatusConflict, "E_staleEpoch",
			fmt.Sprintf("feed is epoch %d (leader %s), requester has seen %d", epoch, leader, q.epoch)}
	}
	changes, next, _, resync, err := s.WatchChangesEpoch(ctx, q.since, q.epoch, q.timeout, true)
	if err != nil {
		return reply{}, &refusal{http.StatusRequestTimeout, "E_fatalError", err.Error()}
	}
	p := reply{changes: changes, seq: next, resync: resync}
	p.epoch, p.leader = s.Epoch()
	return p, nil
}

// View rewrites or suppresses registry entries served to one consumer
// class. It receives each outbound entry (for delete/expire journal
// records, an identity-only entry carrying just Key and Name) and returns
// the entry to serve, or ok=false to hide it from this consumer entirely.
// Views apply to inquiries and the change watch alike, so a consumer
// behind a view sees one consistent, filtered registry. A view that
// rewrites an entry must Clone it first: the argument may share storage
// (the category map in particular) with the registry's own records.
type View func(Entry) (Entry, bool)

// Face describes one mount of the registry. The same description builds
// its HTTP face (Handler) and its binary face (BinHandler), so both
// encodings serve one policy. The zero Face is the unrestricted
// repository face.
type Face struct {
	// OwnHome, when non-empty, makes the face private to that home:
	// an authenticated caller from another home gets E_userMismatch
	// (service.ErrForbidden). Unauthenticated requests are the auth
	// middleware's business and pass.
	OwnHome string
	// ReadOnly restricts the face to the inquiry operations:
	// publication gets E_operatorMismatch.
	ReadOnly bool
	// ViewFor, when set, chooses the caller's entry view (the export
	// policy on a peering face). ok=false refuses service: the face
	// exists but nothing is mounted behind it yet. A viewed face never
	// serves replication.
	ViewFor func(caller string) (View, bool)
}

// serve is the one path every registry request takes, whichever encoding
// it arrived in. decodeErr is the wire's verdict on q's parameters; it is
// reported only once the operation has passed the face's policy.
func (s *Server) serve(ctx context.Context, f Face, caller string, q request, decodeErr error) (reply, *refusal) {
	o := q.op
	if f.OwnHome != "" && caller != "" && caller != f.OwnHome {
		return reply{}, &refusal{http.StatusForbidden, "E_userMismatch",
			"identity: this face is private to home " + f.OwnHome + ": " + service.ErrForbidden.Error()}
	}
	var view View
	if f.ViewFor != nil {
		v, ok := f.ViewFor(caller)
		if !ok {
			return reply{}, &refusal{http.StatusNotFound, "E_unsupported", "peering not enabled on this repository"}
		}
		view = v
	}
	if o.write {
		if f.ReadOnly {
			return reply{}, &refusal{http.StatusForbidden, "E_operatorMismatch", "read-only endpoint: " + o.name}
		}
		// A replica names its leader, so resolver-aware clients re-pin.
		if rs := s.replica.Load(); rs != nil {
			return reply{}, &refusal{http.StatusMisdirectedRequest, "E_notLeader", notLeaderInfo(rs.leader)}
		}
	}
	if o.repl && (f.ReadOnly || f.ViewFor != nil) {
		return reply{}, &refusal{http.StatusForbidden, "E_unsupported",
			"replication is private to the repository face: " + o.name}
	}
	if decodeErr != nil {
		return reply{}, badRequest(decodeErr)
	}
	q.timeout = min(q.timeout, maxWatchTimeout)
	p, r := o.store(s, ctx, q)
	if r != nil || view == nil {
		return p, r
	}
	kept := p.entries[:0]
	for _, e := range p.entries {
		if ve, ok := view(e); ok {
			kept = append(kept, ve)
		}
	}
	p.entries = kept
	// A change the view hides still advances the cursor: a round
	// filtered to empty reads as an empty poll.
	changes := p.changes[:0]
	for _, c := range p.changes {
		if ve, ok := view(c.Entry); ok {
			c.Entry = ve
			changes = append(changes, c)
		}
	}
	p.changes = changes
	return p, nil
}

// Handler returns the face's HTTP encoding: every operation POSTs an XML
// document. The caller is the one an auth middleware in front
// (identity.Require) verified.
func (s *Server) Handler(f Face) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, &refusal{http.StatusMethodNotAllowed, "E_unsupported", "POST required"})
			return
		}
		data, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
		if err != nil {
			writeError(w, badRequest(fmt.Errorf("read: %w", err)))
			return
		}
		root, err := xmltree.Parse(data)
		if err != nil {
			writeError(w, badRequest(fmt.Errorf("parse: %w", err)))
			return
		}
		o := opsByName[root.Name.Local]
		if o == nil {
			writeError(w, &refusal{http.StatusBadRequest, "E_unsupported", "unknown request " + root.Name.Local})
			return
		}
		q := request{op: o}
		err = readXMLRequest(root, &q)
		p, ref := s.serve(r.Context(), f, identity.CallerFrom(r), q, err)
		if ref != nil {
			writeError(w, ref)
			return
		}
		w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(encodeXMLReply(o.xmlReply, &p))
	})
}

// BinHandler returns the face's binary encoding: the operations as
// binuddi records inside session-MAC'd frames, caller verified at the
// session handshake.
func (s *Server) BinHandler(f Face) transport.BinHandler {
	return transport.BinHandlerFunc(func(ctx context.Context, caller string, req *transport.BinRequest) *transport.BinResponse {
		if req.ContentType != BinContentType {
			return binError(&refusal{http.StatusUnsupportedMediaType, "E_unsupported",
				"binary registry face: unknown content type " + req.ContentType})
		}
		code, r, err := binReaderFor(req.Body)
		if err != nil {
			return binError(badRequest(err))
		}
		o := opsByCode[code]
		if o == nil {
			return binError(&refusal{http.StatusBadRequest, "E_unsupported", fmt.Sprintf("unknown binary request %q", code)})
		}
		q := request{op: o}
		err = readBinRequest(r, &q)
		p, ref := s.serve(ctx, f, caller, q, err)
		if ref != nil {
			return binError(ref)
		}
		return &transport.BinResponse{Status: http.StatusOK, ContentType: BinContentType,
			Body: encodeBinReply(o.binReply, &p)}
	})
}

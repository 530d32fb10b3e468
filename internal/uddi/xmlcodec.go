// XML encoding of the registry operations: the UDDI-style documents the
// HTTP face speaks, driven by the op table's parameter and reply-field
// lists (ops.go, bincodec.go). These bytes are the interop contract, so
// every element and attribute order here is fixed.
package uddi

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"homeconnect/internal/xmltree"
)

// maxRequestBytes bounds inbound and outbound registry documents.
const maxRequestBytes = 1 << 20

// encodeXMLRequest renders q as its operation's request document. Each
// parameter is a child element: <service>, <ttlms> (absent when zero),
// <serviceKey>, the query's <name>/<tModel>/<category>, <since>,
// <timeoutms> (absent when zero) and <epoch> (absent when zero, except
// on repl_watch).
func encodeXMLRequest(q *request) []byte {
	w := xmltree.NewWriter()
	w.Open(q.op.name)
	for _, p := range q.op.xml {
		switch p {
		case pService:
			if len(q.entries) > 0 {
				entryToXML(w, q.entries[0])
			}
		case pServices:
			for _, e := range q.entries {
				entryToXML(w, e)
			}
		case pTTL:
			if q.ttl > 0 {
				w.Leaf("ttlms", strconv.Itoa(int(q.ttl/time.Millisecond)))
			}
		case pKey:
			w.Leaf("serviceKey", q.key)
		case pQuery:
			if q.query.Name != "" {
				w.Leaf("name", q.query.Name)
			}
			if q.query.TModel != "" {
				w.Leaf("tModel", q.query.TModel)
			}
			writeCategories(w, q.query.Categories)
		case pSince:
			w.Leaf("since", strconv.FormatUint(q.since, 10))
		case pTimeout:
			if q.timeout > 0 {
				w.Leaf("timeoutms", strconv.Itoa(int(q.timeout/time.Millisecond)))
			}
		case pEpoch, pEpochAlways:
			if q.epoch > 0 || p == pEpochAlways {
				w.Leaf("epoch", strconv.FormatUint(q.epoch, 10))
			}
		}
	}
	return w.Bytes()
}

// readXMLRequest decodes q.op's parameters from its request document.
func readXMLRequest(root *xmltree.Element, q *request) error {
	var err error
	for _, p := range q.op.xml {
		switch p {
		case pService:
			if svc := root.Child("service"); svc != nil {
				q.entries = []Entry{entryFromXML(svc)}
			}
		case pServices:
			for _, svc := range root.All("service") {
				q.entries = append(q.entries, entryFromXML(svc))
			}
		case pTTL:
			q.ttl, err = xmlMillis(root, "ttlms")
		case pKey:
			q.key = root.ChildText("serviceKey")
		case pQuery:
			q.query = Query{Name: root.ChildText("name"), TModel: root.ChildText("tModel"),
				Categories: readCategories(root)}
		case pSince:
			q.since, err = xmlUint(root.ChildText("since"), "since")
		case pTimeout:
			q.timeout, err = xmlMillis(root, "timeoutms")
		case pEpoch, pEpochAlways:
			q.epoch, err = xmlUint(root.ChildText("epoch"), "epoch")
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// xmlUint parses an optional unsigned value; absent is zero.
func xmlUint(t, name string) (uint64, error) {
	if t == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(t, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %s", name, t)
	}
	return v, nil
}

// xmlMillis reads an optional millisecond-valued child element; absent
// is zero (each caller's "use the default").
func xmlMillis(root *xmltree.Element, name string) (time.Duration, error) {
	t := root.ChildText(name)
	if t == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(t, 10, 64)
	if err != nil || ms < 0 || ms > maxMillis {
		return 0, fmt.Errorf("bad %s %s", name, t)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// xmlShape is an XML reply document: its root element, the scalar fields
// it carries as root attributes, and the list field it carries as child
// elements (fNone for none, in which case the root self-closes).
type xmlShape struct {
	root  string
	attrs []xmlAttr
	body  field
}

type xmlAttr struct {
	name string
	f    field
}

var (
	xmlKeys   = xmlShape{root: "serviceDetail", body: fKeys}
	xmlOK     = xmlShape{root: "dispositionReport", attrs: []xmlAttr{{"result", fOK}}}
	xmlList   = xmlShape{root: "serviceList", attrs: []xmlAttr{{"seq", fSeq}}, body: fEntries}
	xmlDetail = xmlShape{root: "serviceDetail", body: fEntries}
	// changeList: an older server omits epoch, which reads as 0 (unknown).
	xmlChanges = xmlShape{root: "changeList",
		attrs: []xmlAttr{{"next", fSeq}, {"resync", fResync}, {"epoch", fEpoch}}, body: fChanges}
	xmlReplStatus = xmlShape{root: "replStatus",
		attrs: []xmlAttr{{"seq", fSeq}, {"epoch", fEpoch}, {"leader", fLeader}, {"role", fRole}, {"replicaOf", fReplicaOf}}}
	xmlReplState = xmlShape{root: "replState",
		attrs: []xmlAttr{{"seq", fSeq}, {"epoch", fEpoch}, {"leader", fLeader}}, body: fLeased}
	xmlReplChanges = xmlShape{root: "replChangeList",
		attrs: []xmlAttr{{"next", fSeq}, {"resync", fResync}, {"epoch", fEpoch}, {"leader", fLeader}}, body: fLeasedChanges}
)

func encodeXMLReply(sh xmlShape, p *reply) []byte {
	attrs := make([]string, 0, 2*len(sh.attrs))
	for _, a := range sh.attrs {
		var v string
		switch a.f {
		case fSeq:
			v = strconv.FormatUint(p.seq, 10)
		case fEpoch:
			v = strconv.FormatUint(p.epoch, 10)
		case fResync:
			v = strconv.FormatBool(p.resync)
		case fLeader:
			v = p.leader
		case fRole:
			v = p.role
		case fReplicaOf:
			v = p.replicaOf
		case fOK:
			v = "ok"
		}
		attrs = append(attrs, a.name, v)
	}
	w := xmltree.NewWriter()
	if sh.body == fNone {
		w.SelfClose(sh.root, attrs...)
		return w.Bytes()
	}
	w.Open(sh.root, attrs...)
	switch sh.body {
	case fKeys:
		for _, k := range p.keys {
			w.Leaf("serviceKey", k)
		}
	case fEntries:
		for _, e := range p.entries {
			entryToXML(w, e)
		}
	case fLeased:
		for i, e := range p.entries {
			w.Open("replEntry", "expiresms", strconv.FormatInt(p.deadlines[i].UnixMilli(), 10))
			entryToXML(w, e)
			w.Close()
		}
	case fChanges, fLeasedChanges:
		el := "change"
		if sh.body == fLeasedChanges {
			el = "replChange"
		}
		for _, c := range p.changes {
			seq := strconv.FormatUint(c.Seq, 10)
			switch {
			case c.Op != OpAdd && c.Op != OpUpdate:
				w.SelfClose(el, "seq", seq, "op", string(c.Op), "serviceKey", c.Entry.Key, "name", c.Entry.Name)
				continue
			case sh.body == fLeasedChanges:
				w.Open(el, "seq", seq, "op", string(c.Op), "expiresms", strconv.FormatInt(int64(deadlineMillis(c.Expires)), 10))
			default:
				w.Open(el, "seq", seq, "op", string(c.Op))
			}
			entryToXML(w, c.Entry)
			w.Close()
		}
	}
	return w.Bytes()
}

// decodeXMLReply decodes a reply document of shape sh.
func decodeXMLReply(sh xmlShape, root *xmltree.Element) (reply, error) {
	if root.Name.Local != sh.root {
		return reply{}, fmt.Errorf("uddi: response root %s, want %s", root.Name.Local, sh.root)
	}
	var p reply
	var err error
	for _, a := range sh.attrs {
		v := root.Attr(a.name)
		switch a.f {
		case fSeq:
			p.seq, err = xmlUint(v, sh.root+" "+a.name)
		case fEpoch:
			p.epoch, err = xmlUint(v, sh.root+" "+a.name)
		case fResync:
			p.resync = v == "true"
		case fLeader:
			p.leader = v
		case fRole:
			p.role = v
		case fReplicaOf:
			p.replicaOf = v
		}
		if err != nil {
			return reply{}, fmt.Errorf("uddi: %w", err)
		}
	}
	switch sh.body {
	case fKeys:
		for _, el := range root.All("serviceKey") {
			p.keys = append(p.keys, strings.TrimSpace(el.Text))
		}
	case fEntries:
		for _, svc := range root.All("service") {
			p.entries = append(p.entries, entryFromXML(svc))
		}
	case fLeased:
		for _, el := range root.All("replEntry") {
			ms, err := strconv.ParseInt(el.Attr("expiresms"), 10, 64)
			if err != nil {
				return reply{}, fmt.Errorf("uddi: bad replEntry expiresms: %w", err)
			}
			svc := el.Child("service")
			if svc == nil {
				return reply{}, fmt.Errorf("uddi: replEntry without service")
			}
			p.entries = append(p.entries, entryFromXML(svc))
			p.deadlines = append(p.deadlines, time.UnixMilli(ms))
		}
	case fChanges, fLeasedChanges:
		el := "change"
		if sh.body == fLeasedChanges {
			el = "replChange"
		}
		for _, ce := range root.All(el) {
			seq, err := strconv.ParseUint(ce.Attr("seq"), 10, 64)
			if err != nil {
				return reply{}, fmt.Errorf("uddi: bad %s seq: %w", el, err)
			}
			c := Change{Seq: seq, Op: ChangeOp(ce.Attr("op"))}
			switch c.Op {
			case OpAdd, OpUpdate:
				if sh.body == fLeasedChanges {
					ms, err := strconv.ParseInt(ce.Attr("expiresms"), 10, 64)
					if err != nil {
						return reply{}, fmt.Errorf("uddi: bad %s expiresms: %w", el, err)
					}
					if ms != 0 {
						c.Expires = time.UnixMilli(ms)
					}
				}
				svc := ce.Child("service")
				if svc == nil {
					return reply{}, fmt.Errorf("uddi: %s %s without service", c.Op, el)
				}
				c.Entry = entryFromXML(svc)
			case OpDelete, OpExpire:
				c.Entry = Entry{Key: ce.Attr("serviceKey"), Name: ce.Attr("name")}
			default:
				return reply{}, fmt.Errorf("uddi: unknown %s op %q", el, ce.Attr("op"))
			}
			p.changes = append(p.changes, c)
		}
	}
	return p, nil
}

// entryToXML appends a <service> element for e to the writer.
func entryToXML(w *xmltree.Writer, e Entry) {
	w.Open("service",
		"serviceKey", e.Key,
		"name", e.Name,
		"accessPoint", e.AccessPoint,
		"tModel", e.TModel,
	)
	if e.Description != "" {
		w.Leaf("description", e.Description)
	}
	writeCategories(w, e.Categories)
	if e.WSDL != "" {
		w.Leaf("wsdl", e.WSDL)
	}
	w.Close()
}

// writeCategories appends a category bag, sorted for stable wire output.
func writeCategories(w *xmltree.Writer, cats map[string]string) {
	keys := make([]string, 0, len(cats))
	for k := range cats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.SelfClose("category", "keyName", k, "keyValue", cats[k])
	}
}

// readCategories reads a category bag; nil when empty.
func readCategories(el *xmltree.Element) map[string]string {
	var cats map[string]string
	for _, c := range el.All("category") {
		if cats == nil {
			cats = make(map[string]string)
		}
		cats[c.Attr("keyName")] = c.Attr("keyValue")
	}
	return cats
}

// entryFromXML parses a <service> element.
func entryFromXML(svc *xmltree.Element) Entry {
	e := Entry{
		Key:         svc.Attr("serviceKey"),
		Name:        svc.Attr("name"),
		AccessPoint: svc.Attr("accessPoint"),
		TModel:      svc.Attr("tModel"),
		Description: svc.ChildText("description"),
		Categories:  readCategories(svc),
	}
	if wel := svc.Child("wsdl"); wel != nil {
		e.WSDL = wel.Text
	}
	return e
}

// AuthErrorWriter renders an authentication refusal in the registry's
// own dispositionReport vocabulary — the identity.DenyWriter for UDDI
// faces. The UDDI v2 error codes are the closest the spec offers:
// E_authTokenRequired for missing/invalid credentials, E_userMismatch
// for an authenticated party the face refuses.
func AuthErrorWriter(w http.ResponseWriter, code, msg string) {
	switch code {
	case "Forbidden":
		writeError(w, &refusal{http.StatusForbidden, "E_userMismatch", msg})
	default:
		writeError(w, &refusal{http.StatusUnauthorized, "E_authTokenRequired", msg})
	}
}

// writeError renders a refusal as an error dispositionReport.
func writeError(w http.ResponseWriter, ref *refusal) {
	xw := xmltree.NewWriter()
	xw.Open("dispositionReport", "result", "error")
	xw.Leaf("errCode", ref.code)
	xw.Leaf("errInfo", ref.info)
	w.Header().Set("Content-Type", `text/xml; charset="utf-8"`)
	w.WriteHeader(ref.status)
	_, _ = w.Write(xw.Bytes())
}

// Dialer is the one client-construction surface for everything that
// crosses a home boundary. It owns:
//
//   - credentials: per-operation request signing on the SOAP/HTTP path,
//     and the session handshake on the binary path;
//   - protocol negotiation: whether a given authority speaks the binary
//     fast path, discovered once and remembered, with degradation back
//     to SOAP that never drops application state (the request body —
//     watch cursor included — is simply re-sent over HTTP);
//   - the MemNet seam: a custom RoundTripper carries the HTTP path, and
//     confines binary negotiation to in-process authorities.
//
// One Dialer serves one principal: a home builds one and hands it to
// every component that talks on the home's behalf, so they share one
// link pool, one negotiation state per authority and one set of wire
// stats. soap, uddi and vsr clients take a *Dialer and no other seam; a
// nil *Dialer is anonymous SOAP/HTTP over the shared transport, whose
// client Client() returns.
package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"
)

// ErrBinaryUnavailable reports that the binary fast path is not (or no
// longer) negotiated for an authority; the caller re-issues the same
// request over SOAP/HTTP. It is a routing signal, not a failure of the
// request itself.
var ErrBinaryUnavailable = errors.New("transport: binary fast path unavailable")

// errLaneClosed marks a local lane whose server has shut down.
var errLaneClosed = errors.New("transport: binary lane closed")

// Link modes.
const (
	modeUnknown = iota // not yet probed
	modeBinary         // handshake succeeded at least once
	modeSOAP           // refused, failed, or downgraded — HTTP only
)

const (
	// binDialTimeout bounds the TCP probe + handshake on first contact.
	binDialTimeout = 3 * time.Second
	// binReprobeInterval is how long a downgraded authority stays
	// SOAP-only before a fresh negotiation attempt.
	binReprobeInterval = time.Minute
	// maxIdleBinLinks bounds pooled idle links per authority; a watch
	// long-poll occupies one, calls share the rest.
	maxIdleBinLinks = 4
)

// LinkStats is one authority's wire-mode state, surfaced through
// Federation.Health (homeconnect.WireStats re-exports the map).
type LinkStats struct {
	// Protocol is "binary" when the fast path is negotiated, "soap"
	// when the authority is on the HTTP fallback.
	Protocol string `json:"protocol"`
	// SessionAgeMS is the age of the newest session, milliseconds.
	SessionAgeMS int64 `json:"session_age_ms,omitempty"`
	// Handshakes counts completed session handshakes (establishes and
	// rekeys both).
	Handshakes uint64 `json:"handshakes"`
	// Rekeys counts in-place session renewals on lifetime expiry.
	Rekeys uint64 `json:"rekeys"`
	// Downgrades counts binary→SOAP degradations (transport failure or
	// protocol fault mid-session).
	Downgrades uint64 `json:"downgrades"`
}

// WireStats maps authority ("host:port") to its link state.
type WireStats map[string]LinkStats

// Dialer owns credentials, protocol negotiation and the transport seam
// for one principal (usually one home). Configure fields before first
// use; the zero value is an anonymous, SOAP-only dialer over the shared
// TCP transport. A nil *Dialer behaves the same way: HTTPClient returns
// Client(), Exchange reports ErrBinaryUnavailable, and its stats are
// empty. Whoever builds a Dialer closes it; components handed one never
// do.
type Dialer struct {
	// Creds signs SOAP/HTTP requests per-operation and verifies
	// response signatures; nil or inactive means plain HTTP (open
	// mode).
	Creds Credentials
	// Session is the binary handshake provider; nil or inactive
	// disables fast-path negotiation entirely.
	Session SessionAuth
	// Transport, when set, carries the HTTP path (the MemNet seam) and
	// restricts binary negotiation to in-process authorities.
	Transport http.RoundTripper
	// Binary gates fast-path negotiation. NewDialer turns it on when
	// the credentials can run session handshakes.
	Binary bool
	// Timeout, when set, bounds each HTTP request, for delivery paths
	// without a context discipline (push callbacks).
	Timeout time.Duration

	mu    sync.Mutex
	httpC *http.Client
	links map[string]*linkState
	nowFn func() time.Time
}

// linkState is one authority's negotiation state and link pool.
type linkState struct {
	mode       int
	retryAt    time.Time // earliest re-probe after a downgrade
	idle       []*binLink
	handshakes uint64
	rekeys     uint64
	downgrades uint64
	lastStart  time.Time // newest session establishment
}

// NewDialer builds a dialer for the given credentials. When the
// credentials also implement SessionAuth (a home identity does), binary
// negotiation is enabled; open-mode dialers stay SOAP-only and
// byte-identical to the pre-session wire.
func NewDialer(creds Credentials) *Dialer {
	d := &Dialer{Creds: creds}
	if sa, ok := creds.(SessionAuth); ok && creds != nil {
		d.Session = sa
		d.Binary = true
	}
	return d
}

// now returns the dialer clock.
func (d *Dialer) now() time.Time {
	if d.nowFn != nil {
		return d.nowFn()
	}
	return time.Now()
}

// setClock overrides the dialer clock (tests force expiry with it).
func (d *Dialer) setClock(now func() time.Time) {
	d.mu.Lock()
	d.nowFn = now
	d.mu.Unlock()
}

// HTTPClient returns the SOAP/HTTP side of the dialer: per-operation
// signing when credentials are present, over Transport or the shared
// keep-alive transport. The client is built once and reused.
func (d *Dialer) HTTPClient() *http.Client {
	if d == nil {
		return client
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.httpC != nil {
		return d.httpC
	}
	rt := d.Transport
	if rt == nil {
		rt = Shared()
	}
	if d.Creds != nil {
		d.httpC = &http.Client{Transport: &authRoundTripper{creds: d.Creds, next: rt}, Timeout: d.Timeout}
	} else {
		d.httpC = &http.Client{Transport: rt, Timeout: d.Timeout}
	}
	return d.httpC
}

// SetBinary turns fast-path negotiation on or off on a dialer that may
// already be in use (the Binary field is for configuration before first
// use).
func (d *Dialer) SetBinary(on bool) {
	d.mu.Lock()
	d.Binary = on
	d.mu.Unlock()
}

// binaryEligible reports whether fast-path negotiation is even possible.
func (d *Dialer) binaryEligible() bool {
	if d == nil {
		return false
	}
	d.mu.Lock()
	on := d.Binary
	d.mu.Unlock()
	return on && d.Session != nil && d.Session.SessionActive()
}

// Ready reports whether Exchange would try the fast path to rawURL's
// authority now: binary is on, the credentials can key a session, and
// the authority is not waiting out a SOAP re-probe window. Callers ask
// before encoding a binary body, so an attempt that cannot run costs
// nothing; Exchange still checks for itself.
func (d *Dialer) Ready(rawURL string) bool {
	if d == nil || d.Session == nil || !d.Session.SessionActive() {
		return false
	}
	authority, ok := authorityOf(rawURL)
	if !ok {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.links[authority]
	return d.Binary && (st == nil || st.mode != modeSOAP || !d.now().Before(st.retryAt))
}

// authorityOf returns the "host:port" of an absolute URL without
// allocating.
func authorityOf(rawURL string) (string, bool) {
	_, rest, ok := strings.Cut(rawURL, "://")
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

// link returns (creating if needed) the state for an authority.
func (d *Dialer) link(authority string) *linkState {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.links == nil {
		d.links = make(map[string]*linkState)
	}
	st := d.links[authority]
	if st == nil {
		st = &linkState{}
		d.links[authority] = st
	}
	return st
}

// BinResult is a completed binary exchange.
type BinResult struct {
	// Status is the HTTP-equivalent status code, so binary and SOAP
	// responses classify identically.
	Status      int
	ContentType string
	Body        []byte
}

// Exchange runs one request over the binary fast path to rawURL's
// authority. ErrBinaryUnavailable means the authority has not (or no
// longer) negotiated binary — re-send the same body over HTTPClient();
// because the request body carries all application state (watch cursors
// included), nothing is lost in the downgrade. Context cancellation
// surfaces as the context's error, never as a downgrade.
func (d *Dialer) Exchange(ctx context.Context, rawURL, contentType, action string, body []byte) (*BinResult, error) {
	if !d.binaryEligible() {
		return nil, ErrBinaryUnavailable
	}
	u, err := url.Parse(rawURL)
	if err != nil || u.Host == "" {
		return nil, ErrBinaryUnavailable
	}
	authority, path := u.Host, u.Path
	if path == "" {
		path = "/"
	}
	st := d.link(authority)

	l, err := d.acquire(st, authority)
	if err != nil {
		return nil, err
	}
	res, err := l.exchange(ctx, path, contentType, action, body)
	if err != nil {
		l.discard()
		// The connection's deadline is the context's, and the socket
		// timer can fire before the context's own: a passed deadline is
		// the caller's doing even while ctx.Err is still nil.
		cerr := ctx.Err()
		if d, ok := ctx.Deadline(); cerr == nil && ok && !time.Now().Before(d) {
			cerr = context.DeadlineExceeded
		}
		if cerr != nil {
			return nil, fmt.Errorf("transport: binary exchange: %w", cerr)
		}
		d.downgrade(st)
		return nil, fmt.Errorf("%w: %v", ErrBinaryUnavailable, err)
	}
	d.release(st, l)
	return res, nil
}

// acquire pops an idle link for the authority or negotiates a new one.
func (d *Dialer) acquire(st *linkState, authority string) (*binLink, error) {
	now := d.now()
	d.mu.Lock()
	if st.mode == modeSOAP && now.Before(st.retryAt) {
		d.mu.Unlock()
		return nil, ErrBinaryUnavailable
	}
	if n := len(st.idle); n > 0 {
		l := st.idle[n-1]
		st.idle = st.idle[:n-1]
		d.mu.Unlock()
		return l, nil
	}
	d.mu.Unlock()

	l, err := d.negotiate(st, authority)
	if err != nil {
		d.mu.Lock()
		st.mode = modeSOAP
		st.retryAt = now.Add(binReprobeInterval)
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrBinaryUnavailable, err)
	}
	d.mu.Lock()
	st.mode = modeBinary
	st.handshakes++
	st.lastStart = now
	d.mu.Unlock()
	return l, nil
}

// negotiate establishes one new link: the in-process registry first,
// then — only on the default TCP transport — a dial with the BinMagic
// preamble and a handshake.
func (d *Dialer) negotiate(st *linkState, authority string) (*binLink, error) {
	if srv := lookupLocal(authority); srv != nil {
		lane, err := newLocalLane(d.Session, srv)
		if err != nil {
			return nil, err
		}
		return &binLink{d: d, st: st, lane: lane}, nil
	}
	if d.Transport != nil {
		// A custom transport (MemNet) has no socket to dial.
		return nil, fmt.Errorf("no in-process binary endpoint for %s", authority)
	}
	conn, err := net.DialTimeout("tcp", authority, binDialTimeout)
	if err != nil {
		return nil, err
	}
	l, err := d.handshake(st, conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return l, nil
}

// handshake opens a link over a freshly dialed conn: the BinMagic
// preamble and a hello in one write, then the accept. The link reads
// every frame from here on through one buffered reader, so a frame that
// fits the buffer costs one read(2) rather than one for its header and
// one for its payload. The caller closes conn on error.
func (d *Dialer) handshake(st *linkState, conn net.Conn) (*binLink, error) {
	conn.SetDeadline(time.Now().Add(binDialTimeout))
	hc, err := d.Session.NewSessionClient()
	if err != nil {
		return nil, err
	}
	hello := appendFrame([]byte(BinMagic), encodeHello(hc.Hello()))
	if _, err := conn.Write(hello); err != nil {
		return nil, err
	}
	rd := bufio.NewReader(conn)
	payload, buf, err := readFrame(rd, nil)
	if err != nil {
		return nil, err
	}
	sess, err := finishAccept(hc, payload)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(time.Time{})
	return &binLink{d: d, st: st, conn: conn, rd: rd, sess: sess, buf: buf}, nil
}

// finishAccept folds an accept-or-error payload into a session.
func finishAccept(hc SessionClient, payload []byte) (*Session, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("transport: empty handshake reply")
	}
	switch payload[0] {
	case opAccept:
		blob, err := decodeBlob(payload)
		if err != nil {
			return nil, err
		}
		return hc.Finish(blob)
	case opError:
		code, msg, err := decodeError(payload)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("transport: peer refused binary handshake (%s): %s", code, msg)
	default:
		return nil, fmt.Errorf("transport: unexpected handshake op %q", payload[0])
	}
}

// release returns a healthy link to the pool (bounded; overflow closes).
func (d *Dialer) release(st *linkState, l *binLink) {
	d.mu.Lock()
	if len(st.idle) < maxIdleBinLinks {
		st.idle = append(st.idle, l)
		d.mu.Unlock()
		return
	}
	d.mu.Unlock()
	l.discard()
}

// downgrade records a binary→SOAP degradation for an authority. Pooled
// links are dropped; the authority re-probes after binReprobeInterval.
func (d *Dialer) downgrade(st *linkState) {
	d.mu.Lock()
	st.mode = modeSOAP
	st.retryAt = d.now().Add(binReprobeInterval)
	st.downgrades++
	idle := st.idle
	st.idle = nil
	d.mu.Unlock()
	for _, l := range idle {
		l.discard()
	}
}

// noteRekey counts one in-place session renewal.
func (d *Dialer) noteRekey(st *linkState) {
	d.mu.Lock()
	st.rekeys++
	st.handshakes++
	st.lastStart = d.now()
	d.mu.Unlock()
}

// ProtocolFor reports the negotiated protocol for a URL's authority:
// "binary", "soap", or "" when the authority has never been dialed.
func (d *Dialer) ProtocolFor(rawURL string) string {
	authority, ok := authorityOf(rawURL)
	if d == nil || !ok {
		return ""
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.links[authority]
	if st == nil {
		return ""
	}
	switch st.mode {
	case modeBinary:
		return "binary"
	case modeSOAP:
		return "soap"
	}
	return ""
}

// WireStatsSnapshot reports every dialed authority's link state.
func (d *Dialer) WireStatsSnapshot() WireStats {
	if d == nil {
		return nil
	}
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(WireStats, len(d.links))
	for authority, st := range d.links {
		ls := LinkStats{Protocol: "soap", Handshakes: st.handshakes,
			Rekeys: st.rekeys, Downgrades: st.downgrades}
		if st.mode == modeBinary {
			ls.Protocol = "binary"
			if !st.lastStart.IsZero() {
				ls.SessionAgeMS = now.Sub(st.lastStart).Milliseconds()
			}
		}
		out[authority] = ls
	}
	return out
}

// Close drops every pooled link, ending their sessions.
func (d *Dialer) Close() {
	if d == nil {
		return
	}
	d.mu.Lock()
	var all []*binLink
	for _, st := range d.links {
		all = append(all, st.idle...)
		st.idle = nil
	}
	d.mu.Unlock()
	for _, l := range all {
		l.discard()
	}
}

// binLink is one pooled fast-path link: either an in-process lane or a
// TCP connection with its session. Links are used serially; the pool
// provides concurrency.
type binLink struct {
	d  *Dialer
	st *linkState

	// Exactly one of lane / conn is set.
	lane *localLane
	conn net.Conn
	rd   *bufio.Reader // conn's reader; every frame is read through it
	sess *Session      // TCP-side session (lane keeps its own pair)
	buf  []byte        // readFrame buffer, reused across exchanges
	enc  []byte        // encoded request payload scratch (conn path)
	wbuf []byte        // framed request scratch (conn path)
}

// copyBody detaches a response body from the link's reusable buffers
// before the link goes back to the pool — the one steady-state copy the
// fast path pays so callers can hold results indefinitely.
func copyBody(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// exchange runs one request, rekeying in place when the session lifetime
// has elapsed (proactively on the dialer clock, or reactively when the
// listener says 'E' expired).
func (l *binLink) exchange(ctx context.Context, path, contentType, action string, body []byte) (*BinResult, error) {
	now := l.d.now()
	if l.lane != nil {
		if l.lane.client.Expired(now) {
			if err := l.lane.rekey(l.d.Session); err != nil {
				return nil, err
			}
			l.d.noteRekey(l.st)
		}
		resp, err := l.lane.exchange(ctx, path, contentType, action, body)
		if errors.Is(err, errSessionExpired) {
			// Listener clock ran ahead of ours: rekey and retry once.
			if err := l.lane.rekey(l.d.Session); err != nil {
				return nil, err
			}
			l.d.noteRekey(l.st)
			resp, err = l.lane.exchange(ctx, path, contentType, action, body)
		}
		if err != nil {
			return nil, err
		}
		return &BinResult{Status: resp.Status, ContentType: resp.ContentType, Body: copyBody(resp.Body)}, nil
	}
	if l.sess.Expired(now) {
		if err := l.rekeyConn(); err != nil {
			return nil, err
		}
		l.d.noteRekey(l.st)
	}
	resp, retry, err := l.exchangeConn(ctx, path, contentType, action, body)
	if retry {
		if err := l.rekeyConn(); err != nil {
			return nil, err
		}
		l.d.noteRekey(l.st)
		resp, _, err = l.exchangeConn(ctx, path, contentType, action, body)
	}
	if err != nil {
		return nil, err
	}
	return &BinResult{Status: resp.Status, ContentType: resp.ContentType, Body: copyBody(resp.Body)}, nil
}

// exchangeConn runs one request over the TCP link. retry reports an 'E'
// expired reply — the session should be rekeyed and the request re-sent.
func (l *binLink) exchangeConn(ctx context.Context, path, contentType, action string, body []byte) (resp binResponse, retry bool, err error) {
	if deadline, ok := ctx.Deadline(); ok {
		l.conn.SetDeadline(deadline)
		defer l.conn.SetDeadline(time.Time{})
	}
	stop := watchCtx(ctx, l.conn)
	defer stop()
	ctr := l.sess.peekSendCtr()
	l.enc = encodeRequest(l.enc[:0], l.sess, path, contentType, action, body)
	l.wbuf = appendFrame(l.wbuf[:0], l.enc)
	if _, err := l.conn.Write(l.wbuf); err != nil {
		return binResponse{}, false, err
	}
	payload, nbuf, err := readFrame(l.rd, l.buf)
	if err != nil {
		return binResponse{}, false, err
	}
	l.buf = nbuf
	if len(payload) > 0 && payload[0] == opError {
		code, msg, derr := decodeError(payload)
		if derr != nil {
			return binResponse{}, false, derr
		}
		if code == binErrExpired {
			return binResponse{}, true, nil
		}
		return binResponse{}, false, fmt.Errorf("transport: peer reported %s: %s", code, msg)
	}
	resp, err = decodeResponse(l.sess, payload, ctr)
	return resp, false, err
}

// rekeyConn renews the TCP link's session with an in-place hello.
func (l *binLink) rekeyConn() error {
	hc, err := l.d.Session.NewSessionClient()
	if err != nil {
		return err
	}
	l.conn.SetDeadline(time.Now().Add(binDialTimeout))
	defer l.conn.SetDeadline(time.Time{})
	if err := writeFrame(l.conn, encodeHello(hc.Hello())); err != nil {
		return err
	}
	payload, nbuf, err := readFrame(l.rd, l.buf)
	if err != nil {
		return err
	}
	l.buf = nbuf
	sess, err := finishAccept(hc, payload)
	if err != nil {
		return err
	}
	l.d.Session.NoteSessionEnd(l.sess, true)
	l.sess = sess
	return nil
}

// discard closes the link for good.
func (l *binLink) discard() {
	if l.lane != nil {
		l.lane.close(l.d.Session)
		l.lane = nil
		return
	}
	if l.conn != nil {
		if l.sess != nil {
			l.d.Session.NoteSessionEnd(l.sess, false)
		}
		l.conn.Close()
		l.conn = nil
	}
}

// watchCtx interrupts a blocking conn read/write when ctx is canceled;
// the returned stop must be called when the exchange completes. stop
// waits for the watcher, and clears the deadline it set: a cancellation
// racing the exchange's completion must not leave a past deadline on a
// connection that goes back to the pool.
func watchCtx(ctx context.Context, conn net.Conn) (stop func()) {
	if ctx.Done() == nil {
		return func() {}
	}
	done := make(chan struct{})
	fired := make(chan bool, 1)
	go func() {
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Unix(1, 0)) // unblock immediately
			fired <- true
		case <-done:
			fired <- false
		}
	}()
	return func() {
		close(done)
		if <-fired {
			conn.SetDeadline(time.Time{})
		}
	}
}

package uddi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"homeconnect/internal/transport"
	"homeconnect/internal/xmltree"
)

// Client talks to a registry server. With a Dialer whose binary lane to
// the server's authority is negotiated, each operation rides its binuddi
// record; otherwise it is the XML document over HTTP.
type Client struct {
	// Dialer carries every operation: credentials, protocol negotiation
	// and transport. Nil means anonymous XML over the shared transport.
	Dialer *transport.Dialer
	// URL is the registry endpoint; ignored when Resolver is set.
	URL string
	// Resolver, when set, replaces URL with a replica-set endpoint list:
	// every operation goes to Resolver.Current(), and an endpoint that is
	// down or answers ErrNotLeader moves the client to the next one (or
	// straight to the leader the replica named) before the error surfaces.
	Resolver *transport.Resolver
}

// endpoint is the registry URL the next attempt should use.
func (c *Client) endpoint() string {
	if c.Resolver != nil {
		return c.Resolver.Current()
	}
	return c.URL
}

// call runs one operation and returns its reply. With a Resolver,
// failover-worthy errors (endpoint down, ErrNotLeader) move to the next
// endpoint before surfacing.
func (c *Client) call(ctx context.Context, q *request) (reply, error) {
	attempts := 1
	if c.Resolver != nil {
		// One extra attempt over the set size, so a not-leader redirect to
		// a pinned leader still has a try left after a full rotation.
		attempts = c.Resolver.Len() + 1
	}
	var p reply
	var err error
	for i := 0; i < attempts; i++ {
		url := c.endpoint()
		p, err = c.callAt(ctx, url, q)
		if err == nil || c.Resolver == nil || ctx.Err() != nil || !FailoverWorthy(err) {
			return p, err
		}
		if h := LeaderHint(err); h != "" && c.Resolver.Pin(h) {
			continue
		}
		c.Resolver.Fail(url)
	}
	return p, err
}

// callAt is one call attempt against one endpoint: the binuddi record
// when the binary lane is up, else the XML document over HTTP. Because
// the request carries all its state (watch cursors included), the
// fallback re-sends the same operation and loses nothing. A registry
// refusal never downgrades: a locked door answers the same on every wire.
func (c *Client) callAt(ctx context.Context, url string, q *request) (reply, error) {
	if p, done, err := c.callBinary(ctx, url, q); done {
		return p, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(encodeXMLRequest(q)))
	if err != nil {
		return reply{}, fmt.Errorf("uddi: build request: %w", err)
	}
	req.Header.Set("Content-Type", `text/xml; charset="utf-8"`)
	resp, err := c.Dialer.HTTPClient().Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("uddi: %w", &endpointDownError{err})
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
	if err != nil {
		return reply{}, fmt.Errorf("uddi: read response: %w", err)
	}
	root, err := xmltree.Parse(data)
	if err != nil {
		return reply{}, fmt.Errorf("uddi: parse response: %w", err)
	}
	if root.Name.Local == "dispositionReport" && root.Attr("result") == "error" {
		// Refusals surface as typed sentinels — auth errors so callers can
		// tell a locked door from a broken one, replication errors so the
		// failover loop can tell a replica from a dead endpoint.
		return reply{}, binErrorOf(root.ChildText("errCode"), root.ChildText("errInfo"))
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("uddi: http status %s", resp.Status)
	}
	return decodeXMLReply(q.op.xmlReply, root)
}

// callBinary is the binuddi attempt of callAt; done is false when the
// document must be sent instead: the Dialer is not ready for the
// authority (the record is then never encoded), the lane is not
// negotiated, or a registry that predates the native records answered.
func (c *Client) callBinary(ctx context.Context, url string, q *request) (p reply, done bool, err error) {
	if !c.Dialer.Ready(url) {
		return reply{}, false, nil
	}
	res, err := c.Dialer.Exchange(ctx, url, BinContentType, "", encodeBinRequest(q))
	switch {
	case err == nil && len(res.Body) > 0 && res.Body[0] == binUDDIVersion:
		p, err = decodeBinReply(q.op.binReply, res.Body)
		return p, true, err
	case err != nil && !errors.Is(err, transport.ErrBinaryUnavailable):
		return reply{}, true, fmt.Errorf("uddi: %w", &endpointDownError{err})
	}
	return reply{}, false, nil
}

// Save publishes the entry with the given TTL and returns the assigned
// service key.
func (c *Client) Save(ctx context.Context, e Entry, ttl time.Duration) (string, error) {
	p, err := c.call(ctx, &request{op: opSave, entries: []Entry{e}, ttl: ttl})
	if err != nil {
		return "", err
	}
	if len(p.keys) != 1 {
		return "", fmt.Errorf("uddi: save_service returned %d keys", len(p.keys))
	}
	return p.keys[0], nil
}

// SaveAll publishes every entry under one TTL in a single round trip and
// returns the assigned keys in order — the batched refresh gateways use
// so N exports cost one request, not N.
func (c *Client) SaveAll(ctx context.Context, entries []Entry, ttl time.Duration) ([]string, error) {
	if len(entries) == 0 {
		return nil, nil
	}
	p, err := c.call(ctx, &request{op: opSaveAll, entries: entries, ttl: ttl})
	if err != nil {
		return nil, err
	}
	if len(p.keys) != len(entries) {
		return nil, fmt.Errorf("uddi: save_services returned %d keys for %d entries", len(p.keys), len(entries))
	}
	return p.keys, nil
}

// Delete removes the registration with the given key.
func (c *Client) Delete(ctx context.Context, key string) error {
	_, err := c.call(ctx, &request{op: opDelete, key: key})
	return err
}

// Find runs an inquiry and returns matching entries sorted by name.
func (c *Client) Find(ctx context.Context, q Query) ([]Entry, error) {
	entries, _, err := c.FindSeq(ctx, q)
	return entries, err
}

// FindSeq is Find plus the registry's journal sequence number observed at
// read time. A cache filled from the result is current through that
// sequence: if a watch later reports a change with a higher number for an
// entry, the cached copy is stale; a concurrent change with a lower or
// equal number was already reflected in the inquiry. Zero means the
// registry gave no fence.
func (c *Client) FindSeq(ctx context.Context, q Query) ([]Entry, uint64, error) {
	p, err := c.call(ctx, &request{op: opFind, query: q})
	if err != nil {
		return nil, 0, err
	}
	return p.entries, p.seq, nil
}

// Get fetches one entry by key; found is false for unknown or expired
// keys.
func (c *Client) Get(ctx context.Context, key string) (Entry, bool, error) {
	p, err := c.call(ctx, &request{op: opGet, key: key})
	if err != nil || len(p.entries) == 0 {
		return Entry{}, false, err
	}
	return p.entries[0], true, nil
}

// Watch long-polls the registry's change journal: it blocks up to timeout
// for changes with sequence numbers greater than since, returning them in
// order plus the cursor to resume from. resync reports that the journal
// no longer covers since (watcher too far behind, or registry restarted):
// the caller must drop everything it cached and resume from next. A zero
// timeout returns immediately, which doubles as a liveness probe.
func (c *Client) Watch(ctx context.Context, since uint64, timeout time.Duration) (changes []Change, next uint64, resync bool, err error) {
	changes, next, _, resync, err = c.WatchEpoch(ctx, since, 0, timeout)
	return changes, next, resync, err
}

// WatchEpoch is Watch carrying the replication epoch the cursor was
// handed out under (0 = unknown), and returning the server's current
// epoch alongside the next cursor. Across a leader failover the promoted
// server uses the stated epoch to replay shared history for an old-regime
// cursor instead of forcing a resync; a watcher that wants that behavior
// must resume with the returned epoch — adopting next even when it is
// below its old cursor, because a lower next under a newer epoch is the
// replay point, not a stale answer.
func (c *Client) WatchEpoch(ctx context.Context, since, sinceEpoch uint64, timeout time.Duration) (changes []Change, next, nextEpoch uint64, resync bool, err error) {
	p, err := c.call(ctx, &request{op: opWatch, since: since, epoch: sinceEpoch, timeout: timeout})
	if err != nil {
		return nil, 0, 0, false, err
	}
	return p.changes, p.seq, p.epoch, p.resync, nil
}

// ReplStatus asks an endpoint where it stands: journal position, epoch,
// role. The election probe.
func (c *Client) ReplStatus(ctx context.Context) (ReplStatus, error) {
	p, err := c.call(ctx, &request{op: opReplStatus})
	if err != nil {
		return ReplStatus{}, err
	}
	return ReplStatus{Seq: p.seq, Epoch: p.epoch, Leader: p.leader, Role: p.role, ReplicaOf: p.replicaOf}, nil
}

// ReplSync fetches the leader's full state dump — the attach path.
func (c *Client) ReplSync(ctx context.Context) (ReplState, error) {
	p, err := c.call(ctx, &request{op: opReplSync})
	if err != nil {
		return ReplState{}, err
	}
	return ReplState{Seq: p.seq, Epoch: p.epoch, Leader: p.leader, Entries: p.entries, Deadlines: p.deadlines}, nil
}

// ReplWatch long-polls the leader's feed from since, announcing the
// highest epoch this replica has seen so a deposed leader fences itself.
func (c *Client) ReplWatch(ctx context.Context, since, epoch uint64, timeout time.Duration) (ReplChanges, error) {
	p, err := c.call(ctx, &request{op: opReplWatch, since: since, epoch: epoch, timeout: timeout})
	if err != nil {
		return ReplChanges{}, err
	}
	return ReplChanges{Changes: p.changes, Next: p.seq, Resync: p.resync, Epoch: p.epoch, Leader: p.leader}, nil
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"grub/internal/query"
	"grub/internal/shard"
)

// Retry bounds the client's automatic retry of transient failures:
// transport errors (connection refused/reset while a node restarts or
// fails over) and 502/503 responses (a forward to a just-dead owner, a
// migration fence, a quorumless node). Each retry backs off exponentially
// from Base, capped at Max, with full jitter (a uniformly random slice of
// the delay) so a fleet of clients retrying through the same failover does
// not stampede in lockstep. The zero value disables retrying — existing
// single-shot behavior — and DefaultRetry is a sensible production choice.
type Retry struct {
	// Attempts is the total number of tries (values < 2 mean one try, no
	// retry).
	Attempts int
	// Base is the backoff before the first retry (default 25ms), doubling
	// each retry.
	Base time.Duration
	// Max caps a single backoff delay (default 400ms).
	Max time.Duration
}

// DefaultRetry rides out a gateway restart, a migration fence or a cluster
// failover window (~4 tries over roughly half a second worst case).
var DefaultRetry = Retry{Attempts: 4, Base: 25 * time.Millisecond, Max: 400 * time.Millisecond}

// Client talks to a gateway over its HTTP API: JSON, except that reads and
// op batches use the binary encodings where the gateway speaks them. The zero
// HTTP client is usable; BaseURL is required ("http://host:port", no
// trailing slash).
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry bounds automatic retry of transient failures (zero = one
	// attempt, no retry).
	Retry Retry

	// binaryOps is set by a batch answered in the binary ops encoding: a
	// gateway that writes it also reads it, so from then on Do sends batches
	// in it. Until then they go as JSON, which every gateway reads. A binary
	// batch refused as unreadable clears it (see Do).
	binaryOps atomic.Bool
}

// NewClient returns a client for a gateway at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// call performs one JSON round-trip; out may be nil. Retry and leader
// redirects are do's.
func (c *Client) call(method, path string, in, out any) error {
	var payload []byte
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s %s: %w", method, path, err)
		}
		payload = b
	}
	resp, err := c.do(method, path, payload, "application/json", "")
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drainClose reads a response body to EOF before closing it. A body closed
// short of EOF — json.Decoder stops at the end of the value, ahead of a
// chunked body's terminating chunk — makes net/http discard the keep-alive
// connection, and the next request dials again.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

// pooled performs one round trip and returns the whole response body in a
// pooled buffer (the caller putBufs it) with the response's Content-Type,
// which says whether a gateway that was asked for a binary answer gave one:
// one that predates the encoding ignores the Accept header and answers JSON.
func (c *Client) pooled(method, path string, payload []byte, contentType, accept string) (*[]byte, string, error) {
	resp, err := c.do(method, path, payload, contentType, accept)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	body, err := readPooled(resp.Body)
	if err != nil {
		return nil, "", fmt.Errorf("client: %s %s: read body: %w", method, path, err)
	}
	return body, resp.Header.Get("Content-Type"), nil
}

// do sends one request with bounded retry per c.Retry and returns the 2xx
// response, body unread; every other outcome is an error. payload, when
// non-nil, is the body, in contentType; accept, when non-empty, the Accept
// header. A 403 (read-only follower refusing a write) or 421 (cluster node
// disclaiming ownership) carrying a Leader header is transparently retried
// once against the named leader, so a client pointed at any node still lands
// its writes; transport errors and 502/503 responses back off and retry when
// c.Retry allows.
func (c *Client) do(method, path string, payload []byte, contentType, accept string) (*http.Response, error) {
	send := func(base string) (*http.Response, error) {
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, base+path, body)
		if err != nil {
			return nil, err
		}
		if payload != nil {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		return c.httpClient().Do(req)
	}
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	base := c.Retry.Base
	if base <= 0 {
		base = DefaultRetry.Base
	}
	maxDelay := c.Retry.Max
	if maxDelay <= 0 {
		maxDelay = DefaultRetry.Max
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := base << (attempt - 1)
			if d > maxDelay {
				d = maxDelay
			}
			// Full jitter: sleep a uniformly random slice of the delay.
			time.Sleep(time.Duration(rand.Int64N(int64(d) + 1)))
		}
		resp, err := send(c.BaseURL)
		if err == nil && (resp.StatusCode == http.StatusForbidden || resp.StatusCode == http.StatusMisdirectedRequest) {
			// One hop only: if the named "leader" disagrees too, its own
			// rejection comes back to the caller rather than chasing a
			// redirect chain.
			if leader := resp.Header.Get("Leader"); leader != "" && leader != c.BaseURL {
				drainClose(resp.Body)
				resp, err = send(leader)
			}
		}
		if err != nil {
			lastErr = err // transport error: transient, retry
			continue
		}
		if resp.StatusCode < 300 {
			return resp, nil
		}
		se := &statusError{status: resp.StatusCode}
		var e errorBody
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			se.msg = fmt.Sprintf("client: %s %s: %s", method, path, e.Error)
		} else {
			se.msg = fmt.Sprintf("client: %s %s: HTTP %d", method, path, resp.StatusCode)
		}
		err = se
		drainClose(resp.Body)
		if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// statusError is a non-2xx answer, as do reports it.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// CreateFeed creates a feed on the gateway.
func (c *Client) CreateFeed(cfg FeedConfig) error {
	return c.call(http.MethodPost, "/feeds", cfg, nil)
}

// Feeds lists feed IDs.
func (c *Client) Feeds() ([]string, error) {
	var out struct {
		Feeds []string `json:"feeds"`
	}
	if err := c.call(http.MethodGet, "/feeds", nil, &out); err != nil {
		return nil, err
	}
	return out.Feeds, nil
}

// Do executes a batch of ops against one feed. It always asks for the
// results in the binary ops encoding and decodes the answer by its
// Content-Type; it sends the batch itself in that encoding once this client
// has had one binary answer, and in JSON before (docs/API.md, "Binary ops
// encoding").
//
// One client may reach more than one gateway: do follows a Leader header,
// and a cluster node forwards a batch to the feed's owner as it came. So a
// binary batch can land on a gateway that predates the encoding, which
// refuses it with 400 before running any of it. Do then sends the batch
// again as JSON and goes back to JSON until the next binary answer.
func (c *Client) Do(id string, ops []Op) ([]OpResult, error) {
	path := "/feeds/" + id + "/ops"
	binary := c.binaryOps.Load()
	body, ct, err := c.postOps(path, ops, binary)
	var se *statusError
	if binary && errors.As(err, &se) && (se.status == http.StatusBadRequest || se.status == http.StatusUnsupportedMediaType) {
		c.binaryOps.Store(false)
		body, ct, err = c.postOps(path, ops, false)
	}
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	if ct == OpsMediaType {
		c.binaryOps.Store(true)
		results, err := decodeResults(*body, ops)
		if err != nil {
			return nil, fmt.Errorf("client: POST %s: %w", path, err)
		}
		return results, nil
	}
	var out BatchResponse
	if err := json.Unmarshal(*body, &out); err != nil {
		return nil, fmt.Errorf("client: POST %s: %w", path, err)
	}
	return out.Results, nil
}

// postOps posts a batch, in the binary ops encoding or in JSON, asking for
// binary results, and returns the answer as pooled returns it.
func (c *Client) postOps(path string, ops []Op, binary bool) (*[]byte, string, error) {
	if !binary {
		payload, err := json.Marshal(BatchRequest{Ops: ops})
		if err != nil {
			return nil, "", fmt.Errorf("client: encode POST %s: %w", path, err)
		}
		return c.pooled(http.MethodPost, path, payload, "application/json", OpsMediaType)
	}
	buf := bufPool.Get().(*[]byte)
	*buf = appendOps(*buf, ops)
	// The transport may still read a request body after the response is
	// in, so the body is a copy the pool never sees again.
	payload := bytes.Clone(*buf)
	putBuf(buf)
	return c.pooled(http.MethodPost, path, payload, OpsMediaType, OpsMediaType)
}

// Stats fetches one feed's counters.
func (c *Client) Stats(id string) (Stats, error) {
	var out Stats
	if err := c.call(http.MethodGet, "/feeds/"+id+"/stats", nil, &out); err != nil {
		return Stats{}, err
	}
	return out, nil
}

// Trace fetches the serialized op order (feeds created with RecordTrace).
// For a sharded feed the order is per shard: shard 0's sub-trace, then
// shard 1's, and so on.
func (c *Client) Trace(id string) ([]Op, error) {
	ops, _, err := c.TraceResults(id)
	return ops, err
}

// TraceResults fetches the recorded trace together with the per-op results
// each op produced when it executed (index-aligned with the ops).
func (c *Client) TraceResults(id string) ([]Op, []OpResult, error) {
	var out TraceResponse
	if err := c.call(http.MethodGet, "/feeds/"+id+"/trace", nil, &out); err != nil {
		return nil, nil, err
	}
	return out.Ops, out.Results, nil
}

// Snapshot forces a durable snapshot of one feed and returns its
// durability counters (gateways started with a data directory only).
func (c *Client) Snapshot(id string) (shard.PersistStats, error) {
	var out SnapshotResponse
	if err := c.call(http.MethodPost, "/feeds/"+id+"/snapshot", nil, &out); err != nil {
		return shard.PersistStats{}, err
	}
	return out.Persist, nil
}

// Get performs an authenticated point read: the record (or proven absence)
// for key, with the Merkle evidence and shard anchor, fetched in the binary
// read encoding (JSON from a gateway that predates it). The proof is NOT
// checked here — use VerifyingClient for reads that must not trust the
// gateway, or query.VerifyGet directly.
func (c *Client) Get(id, key string) (*query.GetResult, error) {
	body, ct, err := c.pooled(http.MethodGet, "/feeds/"+id+"/get?key="+url.QueryEscape(key), nil, "", ReadMediaType)
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	if ct == ReadMediaType {
		return query.DecodeGetResult(*body)
	}
	var out GetResponse
	if err := json.Unmarshal(*body, &out); err != nil {
		return nil, err
	}
	return out.Result, nil
}

// Range performs an authenticated key-range scan: one completeness-proven
// slice of NR records per shard. Proofs are not checked here (see
// VerifyingClient).
func (c *Client) Range(id, lo, hi string) ([]query.RangeResult, error) {
	body, ct, err := c.pooled(http.MethodGet, "/feeds/"+id+"/range?lo="+url.QueryEscape(lo)+"&hi="+url.QueryEscape(hi), nil, "", ReadMediaType)
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	if ct == ReadMediaType {
		return query.DecodeRangeResults(*body)
	}
	var out RangeResponse
	if err := json.Unmarshal(*body, &out); err != nil {
		return nil, err
	}
	return out.Results, nil
}

// Roots fetches the feed's per-shard trust anchors (root, record count,
// chain height, publication seq).
func (c *Client) Roots(id string) ([]query.RootInfo, error) {
	var out RootsResponse
	if err := c.call(http.MethodGet, "/feeds/"+id+"/roots", nil, &out); err != nil {
		return nil, err
	}
	return out.Shards, nil
}

// Health probes the gateway's liveness endpoint. A degraded gateway
// answers 503 but still returns a decodable body (OK=false, the halted
// shards in Degraded), so Health decodes it instead of failing: the
// caller distinguishes "unreachable" (error) from "up but degraded"
// (OK=false).
func (c *Client) Health() (HealthResponse, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/healthz")
	if err != nil {
		return HealthResponse{}, err
	}
	defer drainClose(resp.Body)
	var out HealthResponse
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return HealthResponse{}, fmt.Errorf("client: GET /healthz: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return HealthResponse{}, fmt.Errorf("client: decode /healthz: %w", err)
	}
	return out, nil
}

// Latency fetches one feed's per-stage latency percentiles (the same
// histograms /metrics exposes, summarized in milliseconds).
func (c *Client) Latency(id string) (LatencyResponse, error) {
	var out LatencyResponse
	if err := c.call(http.MethodGet, "/feeds/"+id+"/stats/latency", nil, &out); err != nil {
		return LatencyResponse{}, err
	}
	return out, nil
}

// Info fetches gateway-level information (persistence mode, data dir, feed
// count).
func (c *Client) Info() (InfoResponse, error) {
	var out InfoResponse
	if err := c.call(http.MethodGet, "/info", nil, &out); err != nil {
		return InfoResponse{}, err
	}
	return out, nil
}

// ShardStats fetches the per-shard breakdown of one feed's counters.
func (c *Client) ShardStats(id string) ([]shard.ShardStat, error) {
	var out ShardsResponse
	if err := c.call(http.MethodGet, "/feeds/"+id+"/shards", nil, &out); err != nil {
		return nil, err
	}
	return out.Shards, nil
}

// CloseFeed closes a feed.
func (c *Client) CloseFeed(id string) error {
	return c.call(http.MethodDelete, "/feeds/"+id, nil, nil)
}

package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync"
	"time"

	"grub/internal/core"
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

// Client talks to a gateway over its HTTP API: op batches and authenticated
// reads in the binary encodings (OpsMediaType, ReadMediaType), everything
// else in JSON. The zero HTTP client is usable; BaseURL is required
// ("http://host:port", no trailing slash).
//
// Every request but Health goes over a Go-to-Go stream (docs/API.md) when
// the gateway takes one: a caller with no idle stream to a gateway offers the
// upgrade on its request, and keeps the stream for the next caller. HTTP's
// Transport sends that request; HTTP's Timeout bounds every exchange.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry bounds automatic retry of transient failures (zero = one
	// attempt, no retry).
	Retry Retry

	mu   sync.Mutex
	idle map[string][]*stream // by base URL
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

// pooled performs one round trip whose answer must be in mediaType, the
// type payload (when non-nil) is sent in too, and returns the whole answer
// in a pooled buffer (the caller putBufs it). An answer in any other type is
// an error that names both.
func (c *Client) pooled(method, path string, payload []byte, mediaType string) (*[]byte, error) {
	resp, err := c.do(method, path, payload, mediaType, mediaType)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != mediaType {
		return nil, fmt.Errorf("client: %s %s: answer is %q, want %q", method, path, ct, mediaType)
	}
	body, err := readPooled(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: read body: %w", method, path, err)
	}
	return body, nil
}

// do sends one request with bounded retry per c.Retry and returns the 2xx
// response, body unread; every other outcome is an error. payload, when
// non-nil, is the body, in contentType; accept, when non-empty, the Accept
// header. A 421 (cluster node disclaiming ownership) carrying a Leader
// header is transparently retried once against the named owner, so a client
// pointed at any node still lands its writes; transport errors and 502/503
// responses back off and retry when c.Retry allows. A send goes over an idle
// stream to its base when there is one, else over HTTP offering one; a
// request the stream did not serve (GOAWAY, failed write, or a GET whose
// connection failed before any answer came) goes again at once on a fresh
// connection, without spending an attempt.
func (c *Client) do(method, path string, payload []byte, contentType, accept string) (*http.Response, error) {
	pairs := []string{"Accept", accept, "Content-Type", contentType}
	if payload == nil {
		pairs = pairs[:2]
	}
	if accept == "" {
		pairs = pairs[2:]
	}
	send := func(base string) (*http.Response, error) {
		if s := c.takeStream(base); s != nil {
			buf := bufPool.Get().(*[]byte)
			*buf = appendRequest(append(*buf, 0, 0, 0, 0), method, path, payload, pairs...)
			resp, err := s.exchange(*buf, method == http.MethodGet)
			putBuf(buf)
			if err == nil {
				c.putStream(base, s)
				return resp, nil
			}
			s.rwc.Close()
			if !errors.Is(err, errNotServed) {
				return nil, err
			}
		}
		return c.upgrade(base, method, path, payload, pairs)
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
		if err == nil && resp.StatusCode == http.StatusMisdirectedRequest {
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
		var e errorBody
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			err = fmt.Errorf("client: %s %s: %s", method, path, e.Error)
		} else {
			err = fmt.Errorf("client: %s %s: HTTP %d", method, path, resp.StatusCode)
		}
		drainClose(resp.Body)
		if resp.StatusCode != http.StatusBadGateway && resp.StatusCode != http.StatusServiceUnavailable {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// upgrade sends a request over HTTP with the stream offered. The Transport's
// RoundTrip sends it: http.Client.Do, with Timeout set, would hand a 101 over
// with a read-only body and a timer that later closes the connection. The
// request's context bounds the exchange instead, which is why any answer but
// a 101 is read whole before upgrade returns it. A 101 and the answer frame
// behind it open a stream for the pool.
func (c *Client) upgrade(base, method, path string, payload []byte, pairs []string) (*http.Response, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	hc, ctx := c.httpClient(), context.Background()
	if hc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, body)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(pairs); i += 2 {
		req.Header.Set(pairs[i], pairs[i+1])
	}
	req.Header.Set("Connection", "Upgrade")
	req.Header.Set("Upgrade", streamProto)
	resp, err := cmp.Or[http.RoundTripper](hc.Transport, http.DefaultTransport).RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(b))
		return resp, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok || resp.Header.Get("Upgrade") != streamProto {
		resp.Body.Close()
		return nil, fmt.Errorf("client: %s %s: 101 to Upgrade %q is not a writable %s stream", method, path, resp.Header.Get("Upgrade"), streamProto)
	}
	s := &stream{rwc: rwc, br: bufio.NewReader(rwc), timeout: hc.Timeout}
	if s.timeout > 0 {
		s.timer = time.AfterFunc(s.timeout, func() { rwc.Close() })
	}
	if resp, err = s.exchange(nil, false); err != nil {
		rwc.Close()
		return nil, err
	}
	c.putStream(base, s)
	return resp, nil
}

// stream is the client end of one Go-to-Go stream, owned by one caller at a
// time.
type stream struct {
	rwc     io.ReadWriteCloser
	br      *bufio.Reader
	timeout time.Duration
	timer   *time.Timer // closes rwc when an exchange outlives timeout
}

// exchange writes frame (nil for the upgrading request, whose answer is on its
// way) and reads the answer, whose body holds a pooled buffer of its own. An
// error wrapping errNotServed means the gateway cannot have served the frame,
// or, when the request is idempotent, that the connection failed before any
// of its answer came.
func (s *stream) exchange(frame []byte, idempotent bool) (*http.Response, error) {
	if s.timer != nil {
		s.timer.Reset(s.timeout)
	}
	var err error
	if frame != nil {
		_, err = s.rwc.Write(frame)
	}
	unanswered := err != nil
	if err == nil {
		_, err = s.br.Peek(1)
		unanswered = err != nil && idempotent
	}
	var buf *[]byte
	if err == nil {
		buf, err = readFrame(s.br, math.MaxInt64)
	}
	switch {
	case s.timer != nil && !s.timer.Stop() && err != nil:
		return nil, fmt.Errorf("client: stream: no answer within %v: %v", s.timeout, err)
	case unanswered:
		return nil, fmt.Errorf("%w: %v", errNotServed, err)
	case err != nil:
		return nil, err
	case len(*buf) == 0:
		putBuf(buf)
		return nil, errNotServed // GOAWAY
	}
	status, h, body, err := decodeAnswer(*buf)
	if err != nil {
		putBuf(buf)
		return nil, err
	}
	return &http.Response{StatusCode: status, Header: h, ContentLength: int64(len(body)), Body: newFrameBody(body, buf)}, nil
}

func (c *Client) takeStream(base string) *stream {
	c.mu.Lock()
	defer c.mu.Unlock()
	ss := c.idle[base]
	if len(ss) == 0 {
		return nil
	}
	c.idle[base] = ss[:len(ss)-1]
	return ss[len(ss)-1]
}

// putStream pools s for the next caller, up to the Transport's idle
// connections per host.
func (c *Client) putStream(base string, s *stream) {
	limit := http.DefaultMaxIdleConnsPerHost
	if t, ok := c.httpClient().Transport.(*http.Transport); ok && t.MaxIdleConnsPerHost > 0 {
		limit = t.MaxIdleConnsPerHost
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.idle[base]) >= limit {
		s.rwc.Close()
		return
	}
	if c.idle == nil {
		c.idle = make(map[string][]*stream)
	}
	c.idle[base] = append(c.idle[base], s)
}

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

// Do executes a batch of ops against one feed, sent and answered in the
// binary ops encoding (docs/API.md, "Binary ops encoding").
func (c *Client) Do(id string, ops []Op) ([]OpResult, error) {
	path := query.FeedPath(id, "/ops")
	buf := bufPool.Get().(*[]byte)
	*buf = core.AppendOps(*buf, ops)
	// The transport may still read a request body after the response is
	// in, so the body is a copy the pool never sees again.
	payload := bytes.Clone(*buf)
	putBuf(buf)
	body, err := c.pooled(http.MethodPost, path, payload, OpsMediaType)
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	results, err := decodeResults(*body, ops)
	if err != nil {
		return nil, fmt.Errorf("client: POST %s: %w", path, err)
	}
	return results, nil
}

// Stats fetches one feed's counters.
func (c *Client) Stats(id string) (Stats, error) {
	var out Stats
	if err := c.call(http.MethodGet, query.FeedPath(id, "/stats"), nil, &out); err != nil {
		return Stats{}, err
	}
	return out, nil
}

// TraceResults fetches the serialized op order (feeds created with
// RecordTrace) together with the per-op results each op produced when it
// executed (index-aligned with the ops). For a sharded feed the order is
// per shard: shard 0's sub-trace, then shard 1's, and so on.
func (c *Client) TraceResults(id string) ([]Op, []OpResult, error) {
	var out TraceResponse
	if err := c.call(http.MethodGet, query.FeedPath(id, "/trace"), nil, &out); err != nil {
		return nil, nil, err
	}
	return out.Ops, out.Results, nil
}

// Snapshot forces a durable snapshot of one feed and returns its
// durability counters (gateways started with a data directory only).
func (c *Client) Snapshot(id string) (shard.PersistStats, error) {
	var out SnapshotResponse
	if err := c.call(http.MethodPost, query.FeedPath(id, "/snapshot"), nil, &out); err != nil {
		return shard.PersistStats{}, err
	}
	return out.Persist, nil
}

// Get performs an authenticated point read: the record (or proven absence)
// for key, with the Merkle evidence and shard anchor, fetched in the binary
// read encoding. The proof is NOT checked here — use VerifyingClient for
// reads that must not trust the gateway, or query.VerifyGet directly.
func (c *Client) Get(id, key string) (*query.GetResult, error) {
	body, err := c.pooled(http.MethodGet, query.FeedPath(id, "/get?key=")+url.QueryEscape(key), nil, ReadMediaType)
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	return query.DecodeGetResult(*body)
}

// Range performs an authenticated key-range scan: one completeness-proven
// slice of NR records per shard, fetched in the binary read encoding.
// Proofs are not checked here (see VerifyingClient).
func (c *Client) Range(id, lo, hi string) ([]query.RangeResult, error) {
	body, err := c.pooled(http.MethodGet, query.FeedPath(id, "/range?lo=")+url.QueryEscape(lo)+"&hi="+url.QueryEscape(hi), nil, ReadMediaType)
	if err != nil {
		return nil, err
	}
	defer putBuf(body)
	return query.DecodeRangeResults(*body)
}

// Roots fetches the feed's per-shard trust anchors (root, record count,
// chain height, publication seq).
func (c *Client) Roots(id string) ([]query.RootInfo, error) {
	var out RootsResponse
	if err := c.call(http.MethodGet, query.FeedPath(id, "/roots"), nil, &out); err != nil {
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
	if err := c.call(http.MethodGet, query.FeedPath(id, "/stats/latency"), nil, &out); err != nil {
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
	if err := c.call(http.MethodGet, query.FeedPath(id, "/shards"), nil, &out); err != nil {
		return nil, err
	}
	return out.Shards, nil
}

// CloseFeed closes a feed.
func (c *Client) CloseFeed(id string) error {
	return c.call(http.MethodDelete, query.FeedPath(id, ""), nil, nil)
}

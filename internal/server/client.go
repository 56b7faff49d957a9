package server

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"

	"grub/internal/core"
	"grub/internal/query"
	"grub/internal/shard"
	"grub/internal/stream"
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

// Client talks to a gateway over Go-to-Go streams (docs/API.md;
// stream.Pool.Send, which HTTP configures): op batches and authenticated
// reads in the binary encodings (OpsMediaType, ReadMediaType), everything
// else in JSON. The zero HTTP client is usable; BaseURL is required
// ("http://host:port", no trailing slash).
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry bounds automatic retry of transient failures (zero = one
	// attempt, no retry).
	Retry Retry

	streams stream.Pool
}

// NewClient returns a client for a gateway at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: http.DefaultClient}
}

// call performs one JSON round trip on route rt of feed id ("" for a
// gateway-wide route); out may be nil. Retry and leader redirects are do's.
func (c *Client) call(rt stream.Route, id string, in, out any) error {
	req := stream.Request{Route: rt, Feed: id}
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encode %s: %w", req.String(), err)
		}
		req.Body = b
	}
	a, err := c.do(&req)
	if err != nil {
		return err
	}
	defer a.Close()
	if out == nil {
		return nil
	}
	return json.Unmarshal(a.Body, out)
}

// do sends req with bounded retry per c.Retry and returns the 2xx answer;
// every other outcome is an error. A request on a route with a binary
// encoding must be answered in it (an answer in another type is an error
// that names both). A 421 (cluster node disclaiming ownership) carrying a
// Leader header is transparently retried once against the named owner, so a
// client pointed at any node still lands its writes; transport errors (a
// gateway that refuses the stream among them) and 502/503 responses back off
// and retry when c.Retry allows. A request the stream did not serve goes
// again at once on a fresh connection, without spending an attempt
// (stream.Pool.Send).
func (c *Client) do(req *stream.Request) (stream.Answer, error) {
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
		a, err := c.streams.Send(c.HTTP, c.BaseURL, req)
		if err == nil && a.Status == http.StatusMisdirectedRequest {
			// One hop only: if the named "leader" disagrees too, its own
			// rejection comes back to the caller rather than chasing a
			// redirect chain.
			if leader := a.Leader; leader != "" && leader != c.BaseURL {
				a.Close()
				a, err = c.streams.Send(c.HTTP, leader, req)
			}
		}
		if err != nil {
			lastErr = err // transport error: transient, retry
			continue
		}
		if a.Status < 300 {
			if want := req.Route.Media(); want != "" && a.ContentType != want {
				a.Close()
				return stream.Answer{}, fmt.Errorf("client: %s: answer is %q, want %q", req.String(), a.ContentType, want)
			}
			return a, nil
		}
		err = fmt.Errorf("client: %s: %s", req.String(), a.ErrorText())
		a.Close()
		if a.Status != http.StatusBadGateway && a.Status != http.StatusServiceUnavailable {
			return stream.Answer{}, err
		}
		lastErr = err
	}
	return stream.Answer{}, lastErr
}

// CreateFeed creates a feed on the gateway.
func (c *Client) CreateFeed(cfg FeedConfig) error {
	return c.call(stream.RouteCreateFeed, "", cfg, nil)
}

// Feeds lists feed IDs.
func (c *Client) Feeds() ([]string, error) {
	var out struct {
		Feeds []string `json:"feeds"`
	}
	if err := c.call(stream.RouteListFeeds, "", nil, &out); err != nil {
		return nil, err
	}
	return out.Feeds, nil
}

// Do executes a batch of ops against one feed, sent and answered in the
// binary ops encoding (docs/API.md, "Binary ops encoding").
func (c *Client) Do(id string, ops []Op) ([]OpResult, error) {
	buf := stream.GetBuf()
	defer stream.PutBuf(buf)
	*buf = core.AppendOps(*buf, ops)
	req := stream.Request{Route: stream.RouteOps, Feed: id, Body: *buf}
	a, err := c.do(&req)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	results, err := decodeResults(a.Body, ops)
	if err != nil {
		return nil, fmt.Errorf("client: %s: %w", req.String(), err)
	}
	return results, nil
}

// Stats fetches one feed's counters.
func (c *Client) Stats(id string) (Stats, error) {
	var out Stats
	if err := c.call(stream.RouteStats, id, nil, &out); err != nil {
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
	if err := c.call(stream.RouteTrace, id, nil, &out); err != nil {
		return nil, nil, err
	}
	return out.Ops, out.Results, nil
}

// Snapshot forces a durable snapshot of one feed and returns its
// durability counters (gateways started with a data directory only).
func (c *Client) Snapshot(id string) (shard.PersistStats, error) {
	var out SnapshotResponse
	if err := c.call(stream.RouteSnapshot, id, nil, &out); err != nil {
		return shard.PersistStats{}, err
	}
	return out.Persist, nil
}

// Get performs an authenticated point read: the record (or proven absence)
// for key, with the Merkle evidence and shard anchor, fetched in the binary
// read encoding. The proof is NOT checked here — use VerifyingClient for
// reads that must not trust the gateway, or query.VerifyGet directly.
func (c *Client) Get(id, key string) (*query.GetResult, error) {
	a, err := c.do(&stream.Request{Route: stream.RouteGet, Feed: id, Key: key})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return query.DecodeGetAnswer(a.Body, key)
}

// Range performs an authenticated key-range scan: one completeness-proven
// slice of NR records per shard, fetched in the binary read encoding.
// Proofs are not checked here (see VerifyingClient).
func (c *Client) Range(id, lo, hi string) ([]query.RangeResult, error) {
	a, err := c.do(&stream.Request{Route: stream.RouteRange, Feed: id, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	return query.DecodeRangeResults(a.Body)
}

// Roots fetches the feed's per-shard trust anchors (root, record count,
// chain height, publication seq).
func (c *Client) Roots(id string) ([]query.RootInfo, error) {
	var out RootsResponse
	if err := c.call(stream.RouteRoots, id, nil, &out); err != nil {
		return nil, err
	}
	return out.Shards, nil
}

// Latency fetches one feed's per-stage latency percentiles (the same
// histograms /metrics exposes, summarized in milliseconds).
func (c *Client) Latency(id string) (LatencyResponse, error) {
	var out LatencyResponse
	if err := c.call(stream.RouteLatency, id, nil, &out); err != nil {
		return LatencyResponse{}, err
	}
	return out, nil
}

// Info fetches gateway-level information (persistence mode, data dir, feed
// count).
func (c *Client) Info() (InfoResponse, error) {
	var out InfoResponse
	if err := c.call(stream.RouteInfo, "", nil, &out); err != nil {
		return InfoResponse{}, err
	}
	return out, nil
}

// ShardStats fetches the per-shard breakdown of one feed's counters.
func (c *Client) ShardStats(id string) ([]shard.ShardStat, error) {
	var out ShardsResponse
	if err := c.call(stream.RouteShards, id, nil, &out); err != nil {
		return nil, err
	}
	return out.Shards, nil
}

// CloseFeed closes a feed.
func (c *Client) CloseFeed(id string) error {
	return c.call(stream.RouteCloseFeed, id, nil, nil)
}

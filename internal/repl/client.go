package repl

import (
	"encoding/json"
	"fmt"
	"net/http"

	"grub/internal/stream"
)

// Client fetches the replication surface of one leader gateway over Go-to-Go
// streams (package stream). HTTP configures them (nil: http.DefaultClient);
// Base is required ("http://host:port", no trailing slash). Close ends the
// streams the client holds.
type Client struct {
	Base string
	HTTP *http.Client

	streams stream.Pool
}

// NewClient returns a replication client for the leader at base.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: http.DefaultClient}
}

// Close ends the client's idle streams; a fetch after it still works, over
// a stream of its own.
func (c *Client) Close() { c.streams.Close() }

// get sends one GET to the leader and returns the answer when it is a 200;
// the caller closes it. A 404 maps to ErrFeedGone so tailers can distinguish
// "feed deleted on leader" from transport trouble.
func (c *Client) get(req *stream.Request) (stream.Answer, error) {
	a, err := c.streams.Send(c.HTTP, c.Base, req)
	if err != nil || a.Status == http.StatusOK {
		return a, err
	}
	defer a.Close()
	if a.Status == http.StatusNotFound {
		return stream.Answer{}, fmt.Errorf("%w: %s", ErrFeedGone, req.String())
	}
	return stream.Answer{}, fmt.Errorf("repl: %s: %s", req.String(), a.ErrorText())
}

// FeedInfo is one leader feed: its ID plus the config verbatim, opaque to
// this package (the Target decodes it).
type FeedInfo struct {
	ID     string
	Config json.RawMessage
}

// Feeds lists the leader's hosted feeds with their configs.
func (c *Client) Feeds() ([]FeedInfo, error) {
	req := stream.Request{Route: stream.RouteReplFeeds}
	a, err := c.get(&req)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	var out struct {
		Feeds []json.RawMessage `json:"feeds"`
	}
	if err := json.Unmarshal(a.Body, &out); err != nil {
		return nil, fmt.Errorf("repl: %s: %w", req.String(), err)
	}
	infos := make([]FeedInfo, 0, len(out.Feeds))
	for _, raw := range out.Feeds {
		var peek struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(raw, &peek); err != nil {
			return nil, fmt.Errorf("repl: parse feed config: %w", err)
		}
		if peek.ID == "" {
			return nil, fmt.Errorf("repl: leader served a feed config without an id")
		}
		infos = append(infos, FeedInfo{ID: peek.ID, Config: raw})
	}
	return infos, nil
}

// Log fetches one page of a shard's replication log above the cursor, in
// the binary log encoding; an answer in any other type is an error that
// names both.
func (c *Client) Log(id string, shard int, from uint64, max int) (*LogPage, error) {
	req := stream.Request{Route: stream.RouteLog, Feed: id, Shard: shard, From: from, Max: max}
	a, err := c.get(&req)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	if a.ContentType != LogMediaType {
		return nil, fmt.Errorf("repl: %s: answer is %q, want %q", req.String(), a.ContentType, LogMediaType)
	}
	page, err := DecodeLogPage(a.Body)
	if err != nil {
		return nil, fmt.Errorf("repl: %s: %w", req.String(), err)
	}
	return page, nil
}

// Snapshot fetches a consistent bootstrap image of one shard, in the binary
// image encoding; an answer in any other type is an error that names both.
// The image is only decoded here; the shard checks its anchor when it
// installs it.
func (c *Client) Snapshot(id string, shard int) (*Snapshot, error) {
	req := stream.Request{Route: stream.RouteReplSnapshot, Feed: id, Shard: shard}
	a, err := c.get(&req)
	if err != nil {
		return nil, err
	}
	defer a.Close()
	if a.ContentType != ImageMediaType {
		return nil, fmt.Errorf("repl: %s: answer is %q, want %q", req.String(), a.ContentType, ImageMediaType)
	}
	snap, err := DecodeSnapshot(a.Body)
	if err != nil {
		return nil, fmt.Errorf("repl: %s: %w", req.String(), err)
	}
	return snap, nil
}

package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// Client fetches the replication surface of one leader gateway. The zero
// HTTP client is usable; Base is required ("http://host:port", no trailing
// slash).
type Client struct {
	Base string
	HTTP *http.Client
}

// NewClient returns a replication client for the leader at base.
func NewClient(base string) *Client {
	return &Client{Base: base, HTTP: http.DefaultClient}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// get performs one JSON GET against the leader. A 404 maps to ErrFeedGone so
// tailers can distinguish "feed deleted on leader" from transport trouble.
func (c *Client) get(path string, out any) error {
	resp, err := c.httpClient().Get(c.Base + path)
	if err != nil {
		return err
	}
	// Read to EOF before closing: json.Decoder stops at the end of the
	// value, ahead of a chunked body's terminating chunk, and net/http
	// discards a keep-alive connection whose body was closed short of EOF —
	// every multi-kilobyte log page would dial again.
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w: GET %s", ErrFeedGone, path)
	}
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			return fmt.Errorf("repl: GET %s: %s", path, e.Error)
		}
		return fmt.Errorf("repl: GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// FeedInfo is one leader feed: its ID plus the config verbatim, opaque to
// this package (the Target decodes it).
type FeedInfo struct {
	ID     string
	Config json.RawMessage
}

// Feeds lists the leader's hosted feeds with their configs.
func (c *Client) Feeds() ([]FeedInfo, error) {
	var out struct {
		Feeds []json.RawMessage `json:"feeds"`
	}
	if err := c.get("/repl/feeds", &out); err != nil {
		return nil, err
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

func shardPath(id string, shard int, kind string) string {
	return fmt.Sprintf("/repl/feeds/%s/shards/%d/%s", url.PathEscape(id), shard, kind)
}

// Log fetches one page of a shard's replication log above the cursor.
func (c *Client) Log(id string, shard int, from uint64, max int) (*LogPage, error) {
	path := fmt.Sprintf("%s?from=%d&max=%d", shardPath(id, shard, "log"), from, max)
	var out LogPage
	if err := c.get(path, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Snapshot fetches a consistent bootstrap snapshot of one shard.
func (c *Client) Snapshot(id string, shard int) (*Snapshot, error) {
	var out Snapshot
	if err := c.get(shardPath(id, shard, "snapshot"), &out); err != nil {
		return nil, err
	}
	if out.Feed == nil {
		return nil, errors.New("repl: leader served a snapshot without feed state")
	}
	return &out, nil
}

package repl

import (
	"encoding/json"
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

// fetch performs one GET against the leader, asking for accept when it is
// not empty, and returns the response when it is a 200. A 404 maps to
// ErrFeedGone so tailers can distinguish "feed deleted on leader" from
// transport trouble. The caller closes the body with drainClose.
func (c *Client) fetch(path, accept string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, c.Base+path, nil)
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer drainClose(resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return nil, fmt.Errorf("%w: GET %s", ErrFeedGone, path)
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return nil, fmt.Errorf("repl: GET %s: %s", path, e.Error)
	}
	return nil, fmt.Errorf("repl: GET %s: HTTP %d", path, resp.StatusCode)
}

// drainClose reads a body to EOF before closing it: json.Decoder stops at the
// end of the value, ahead of a chunked body's terminating chunk, and net/http
// discards a keep-alive connection whose body was closed short of EOF — the
// next fetch would dial again.
func drainClose(body io.ReadCloser) {
	io.Copy(io.Discard, body)
	body.Close()
}

// get performs one JSON GET against the leader.
func (c *Client) get(path string, out any) error {
	resp, err := c.fetch(path, "")
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
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

// maxPresizedPage caps the body buffer Log allocates up front from a
// page's Content-Length; a longer claim is read as it arrives.
const maxPresizedPage = 16 << 20

// Log fetches one page of a shard's replication log above the cursor, in
// the binary log encoding; an answer in any other type is an error that
// names both.
func (c *Client) Log(id string, shard int, from uint64, max int) (*LogPage, error) {
	path := fmt.Sprintf("%s?from=%d&max=%d", shardPath(id, shard, "log"), from, max)
	resp, err := c.fetch(path, LogMediaType)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if ct := resp.Header.Get("Content-Type"); ct != LogMediaType {
		return nil, fmt.Errorf("repl: GET %s: answer is %q, want %q", path, ct, LogMediaType)
	}
	var body []byte
	if n := resp.ContentLength; n > 0 && n <= maxPresizedPage {
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return nil, err
	}
	page, err := DecodeLogPage(body)
	if err != nil {
		return nil, fmt.Errorf("repl: GET %s: %w", path, err)
	}
	return page, nil
}

// Snapshot fetches a consistent bootstrap image of one shard. The image is
// only decoded here; the shard checks its anchor when it installs it.
func (c *Client) Snapshot(id string, shard int) (*Snapshot, error) {
	path := shardPath(id, shard, "snapshot")
	resp, err := c.fetch(path, "")
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	snap, err := DecodeSnapshot(body)
	if err != nil {
		return nil, fmt.Errorf("repl: GET %s: %w", path, err)
	}
	return snap, nil
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"grub/internal/obs"
	"grub/internal/query"
)

// Heartbeat is the POST /cluster/heartbeat request body: the sender's
// identity plus its full placement map and a compact per-feed load digest.
// Heartbeats double as the placement- and load-replication channel — both
// sides merge the other's entries and remember the other's digest.
type Heartbeat struct {
	From    string         `json:"from"`
	NodeID  string         `json:"nodeId,omitempty"`
	Entries []Entry        `json:"entries"`
	Load    []obs.FeedLoad `json:"load,omitempty"`
}

// HeartbeatReply is the heartbeat response: the receiver's identity, its
// (post-merge) placement map and its own load digest.
type HeartbeatReply struct {
	NodeID  string         `json:"nodeId,omitempty"`
	Self    string         `json:"self"`
	Entries []Entry        `json:"entries"`
	Load    []obs.FeedLoad `json:"load,omitempty"`
}

// MoveRequest is the POST /cluster/feeds/{id}/move request body.
type MoveRequest struct {
	// Target is the base URL of the member the feed should move to.
	Target string `json:"target"`
}

// Client is a minimal HTTP client for the /cluster/* surface plus the
// anchor endpoint promotion and migration verify against.
type Client struct {
	HTTP *http.Client
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) do(method, url string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("%s %s: %s (status %d)", method, url, eb.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Heartbeat exchanges heartbeats with a peer.
func (c *Client) Heartbeat(peer string, hb Heartbeat) (HeartbeatReply, error) {
	var reply HeartbeatReply
	err := c.do(http.MethodPost, peer+"/cluster/heartbeat", hb, &reply)
	return reply, err
}

// Status fetches a peer's cluster status.
func (c *Client) Status(peer string) (Status, error) {
	var st Status
	err := c.do(http.MethodGet, peer+"/cluster/status", nil, &st)
	return st, err
}

// Move asks a node to migrate a feed to target (the node proxies to the
// owner if it is not the owner itself).
func (c *Client) Move(node, feed, target string) (MoveResult, error) {
	var res MoveResult
	err := c.do(http.MethodPost, node+"/cluster"+query.FeedPath(feed, "/move"), MoveRequest{Target: target}, &res)
	return res, err
}

// Anchors fetches a peer's per-shard trust anchors for a feed — the same
// GET /feeds/{id}/roots document authenticated clients pin.
func (c *Client) Anchors(peer, feed string) ([]query.RootInfo, error) {
	var doc struct {
		Shards []query.RootInfo `json:"shards"`
	}
	if err := c.do(http.MethodGet, peer+query.FeedPath(feed, "/roots"), nil, &doc); err != nil {
		return nil, err
	}
	return doc.Shards, nil
}

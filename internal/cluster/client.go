package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"grub/internal/query"
	"grub/internal/stream"
)

// Heartbeat is the POST /cluster/heartbeat request body: the sender's
// identity plus its full placement map. Heartbeats double as the
// placement-replication channel — both sides merge the other's entries.
type Heartbeat struct {
	From    string  `json:"from"`
	NodeID  string  `json:"nodeId,omitempty"`
	Entries []Entry `json:"entries"`
}

// HeartbeatReply is the heartbeat response: the receiver's identity and
// its (post-merge) placement map.
type HeartbeatReply struct {
	NodeID  string  `json:"nodeId,omitempty"`
	Self    string  `json:"self"`
	Entries []Entry `json:"entries"`
}

// MoveRequest is the POST /cluster/feeds/{id}/move request body.
type MoveRequest struct {
	// Target is the base URL of the member the feed should move to.
	Target string `json:"target"`
}

// Client sends the /cluster/* calls, the anchor fetches promotion and
// migration verify against, and forwarded writes to peers, over Go-to-Go
// streams (package stream). HTTP configures them (nil: http.DefaultClient);
// Close ends the streams the client holds.
type Client struct {
	HTTP *http.Client

	streams stream.Pool
}

// Send sends req to peer and returns its answer, whatever the status.
func (c *Client) Send(peer string, req *stream.Request) (stream.Answer, error) {
	return c.streams.Send(c.HTTP, peer, req)
}

// Idle is the number of idle streams the client holds to peer.
func (c *Client) Idle(peer string) int { return c.streams.Idle(peer) }

// Close ends the client's idle streams; a call after it still works, over
// a stream of its own.
func (c *Client) Close() { c.streams.Close() }

// do performs one JSON call; in and out may be nil.
func (c *Client) do(peer string, req stream.Request, in, out any) error {
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		req.Body = data
	}
	a, err := c.Send(peer, &req)
	if err != nil {
		return err
	}
	defer a.Close()
	if a.Status/100 != 2 {
		return fmt.Errorf("%s: %s: %s", peer, req.String(), a.ErrorText())
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(a.Body, out)
}

// Heartbeat exchanges heartbeats with a peer.
func (c *Client) Heartbeat(peer string, hb Heartbeat) (HeartbeatReply, error) {
	var reply HeartbeatReply
	err := c.do(peer, stream.Request{Route: stream.RouteHeartbeat}, hb, &reply)
	return reply, err
}

// Status fetches a peer's cluster status.
func (c *Client) Status(peer string) (Status, error) {
	var st Status
	err := c.do(peer, stream.Request{Route: stream.RouteClusterStatus}, nil, &st)
	return st, err
}

// Move asks a node to migrate a feed to target (the node proxies to the
// owner if it is not the owner itself).
func (c *Client) Move(node, feed, target string) (MoveResult, error) {
	var res MoveResult
	err := c.do(node, stream.Request{Route: stream.RouteMove, Feed: feed}, MoveRequest{Target: target}, &res)
	return res, err
}

// Anchors fetches a peer's per-shard trust anchors for a feed — the same
// GET /feeds/{id}/roots document authenticated clients pin.
func (c *Client) Anchors(peer, feed string) ([]query.RootInfo, error) {
	var doc struct {
		Shards []query.RootInfo `json:"shards"`
	}
	if err := c.do(peer, stream.Request{Route: stream.RouteRoots, Feed: feed}, nil, &doc); err != nil {
		return nil, err
	}
	return doc.Shards, nil
}

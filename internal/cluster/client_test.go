package cluster

import (
	"encoding/json"
	"net/http"
	"testing"

	"grub/internal/query"
	"grub/internal/stream"
	"grub/internal/stream/streamtest"
)

// TestClientEscapesFeedIDs: Anchors and Move name the feed in their frame as
// it is, whatever characters its ID holds. server.TestClientEscapesFeedIDs
// sends the same IDs from every client to a real gateway.
func TestClientEscapesFeedIDs(t *testing.T) {
	var got string
	srv := streamtest.NewServer(t, func(req *stream.Request) (stream.Head, []byte) {
		got = req.Feed
		var body []byte
		switch req.Route {
		case stream.RouteRoots:
			body, _ = json.Marshal(map[string][]query.RootInfo{"shards": {{Count: 1}}})
		case stream.RouteMove:
			body, _ = json.Marshal(MoveResult{})
		}
		return stream.Head{Status: http.StatusOK, ContentType: stream.JSONMediaType}, body
	})
	var c Client
	defer c.Close()
	for _, id := range []string{"a/b", "a?b", "a#b", "a%b", "a b"} {
		got = ""
		if roots, err := c.Anchors(srv.URL, id); err != nil || len(roots) != 1 || got != id {
			t.Errorf("Anchors(%q) reached feed %q: %v, %v", id, got, roots, err)
		}
		got = ""
		if _, err := c.Move(srv.URL, id, "http://target"); err != nil || got != id {
			t.Errorf("Move(%q) reached feed %q: %v", id, got, err)
		}
	}
}

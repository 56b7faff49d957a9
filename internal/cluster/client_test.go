package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"grub/internal/query"
)

// TestClientEscapesFeedIDs: Anchors and Move name the feed as one path
// segment, whatever characters its ID holds, so the routes the gateway
// registers see the ID it was created with.
func TestClientEscapesFeedIDs(t *testing.T) {
	var got string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /feeds/{id}/roots", func(w http.ResponseWriter, r *http.Request) {
		got = r.PathValue("id")
		json.NewEncoder(w).Encode(map[string][]query.RootInfo{"shards": {{Count: 1}}})
	})
	mux.HandleFunc("POST /cluster/feeds/{id}/move", func(w http.ResponseWriter, r *http.Request) {
		got = r.PathValue("id")
		json.NewEncoder(w).Encode(MoveResult{})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var c Client
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

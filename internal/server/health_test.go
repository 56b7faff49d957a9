package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHealthz pins the load-balancer liveness probe: 200, ok, live feed
// count and the build version, read as a load balancer reads them, with a
// plain HTTP GET.
func TestHealthz(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()
	c := NewClient(srv.URL)

	h, status := getHealth(t, srv.URL)
	if status != http.StatusOK || !h.OK || h.Feeds != 0 || h.Version != Version {
		t.Errorf("healthz = HTTP %d %+v, want 200 ok with 0 feeds, version %q", status, h, Version)
	}

	if err := c.CreateFeed(FeedConfig{ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateFeed(FeedConfig{ID: "b", Shards: 2}); err != nil {
		t.Fatal(err)
	}
	if h, status = getHealth(t, srv.URL); status != http.StatusOK || h.Feeds != 2 {
		t.Errorf("healthz = HTTP %d with %d feeds, want 200 with 2", status, h.Feeds)
	}
}

// getHealth probes baseURL's /healthz with a plain HTTP GET and decodes the
// body, which a degraded gateway's 503 carries too.
func getHealth(t *testing.T, baseURL string) (HealthResponse, int) {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("GET /healthz: HTTP %d, %v", resp.StatusCode, err)
	}
	return h, resp.StatusCode
}

// TestInfoVersion pins the version surfaced through GET /info.
func TestInfoVersion(t *testing.T) {
	g := NewGateway()
	defer g.Close()
	srv := httptest.NewServer(NewHandler(g))
	defer srv.Close()

	info, err := NewClient(srv.URL).Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != Version {
		t.Errorf("info version = %q, want %q", info.Version, Version)
	}
}

package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func fastRetry(attempts int) Retry {
	return Retry{Attempts: attempts, Base: time.Millisecond, Max: 5 * time.Millisecond}
}

// TestClientRetry503 rides out transient 503s: the client must back off and
// retry until the server recovers, and report success without the caller
// ever seeing the failures.
func TestClientRetry503(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(errorBody{Error: "migration fence"})
			return
		}
		json.NewEncoder(w).Encode(struct {
			Feeds []string `json:"feeds"`
		}{Feeds: []string{"f"}})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry(4)
	feeds, err := c.Feeds()
	if err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if len(feeds) != 1 || feeds[0] != "f" {
		t.Fatalf("feeds = %v", feeds)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (two 503s then success)", got)
	}
}

// TestClientRetryExhausted: a persistently failing server costs exactly
// Attempts tries and surfaces the server's last error text.
func TestClientRetryExhausted(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
		json.NewEncoder(w).Encode(errorBody{Error: "owner unreachable"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry(3)
	_, err := c.Feeds()
	if err == nil {
		t.Fatal("want error after exhausting retries")
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want exactly 3", got)
	}
	if want := "owner unreachable"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the server's reason %q", err, want)
	}
}

// TestClientNoRetryByDefault: the zero Retry value keeps the old
// single-attempt behavior.
func TestClientNoRetryByDefault(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	if _, err := NewClient(srv.URL).Feeds(); err == nil {
		t.Fatal("want error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d calls, want 1 (no retry configured)", got)
	}
}

// TestClientRetryTransportError: a connection torn down mid-exchange (node
// dying, listener restarting) is transient too.
func TestClientRetryTransportError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("recorder not hijackable")
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Fatalf("hijack: %v", err)
			}
			conn.Close() // client sees an abrupt EOF
			return
		}
		json.NewEncoder(w).Encode(struct {
			Feeds []string `json:"feeds"`
		}{})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	c.Retry = fastRetry(5)
	if _, err := c.Feeds(); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestClientFollows421Leader: a cluster node disclaiming ownership with
// 421 + Leader sends the client to the named owner — but only one hop; a
// second 421 surfaces as the caller's error instead of a redirect chase.
func TestClientFollows421Leader(t *testing.T) {
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", OpsMediaType)
		w.Write(appendResults(nil, []OpResult{{Found: true}}))
	}))
	defer owner.Close()
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Leader", owner.URL)
		w.WriteHeader(http.StatusMisdirectedRequest)
		json.NewEncoder(w).Encode(errorBody{Error: "not the owner", Leader: owner.URL})
	}))
	defer stale.Close()

	res, err := NewClient(stale.URL).Do("f", []Op{{Type: "write", Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatalf("client did not follow Leader: %v", err)
	}
	if len(res) != 1 || res[0].Key != "k" || !res[0].Found {
		t.Fatalf("results = %+v", res)
	}

	// Two nodes pointing 421 at each other must not loop.
	var a, b *httptest.Server
	bounce := func(other func() string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Leader", other())
			w.WriteHeader(http.StatusMisdirectedRequest)
			json.NewEncoder(w).Encode(errorBody{Error: "not the owner"})
		}
	}
	a = httptest.NewServer(bounce(func() string { return b.URL }))
	defer a.Close()
	b = httptest.NewServer(bounce(func() string { return a.URL }))
	defer b.Close()
	if _, err := NewClient(a.URL).Do("f", nil); err == nil {
		t.Fatal("mutual 421s must surface an error, not loop")
	}
}

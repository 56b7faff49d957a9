package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/stream"
	"grub/internal/stream/streamtest"
)

func fastRetry(attempts int) Retry {
	return Retry{Attempts: attempts, Base: time.Millisecond, Max: 5 * time.Millisecond}
}

// jsonAnswer is a fake gateway's JSON answer: status and v encoded.
func jsonAnswer(status int, v any) (stream.Head, []byte) {
	body, _ := json.Marshal(v)
	return stream.Head{Status: status, ContentType: stream.JSONMediaType}, body
}

// TestClientRetry503 rides out transient 503s: the client must back off and
// retry until the server recovers, and report success without the caller
// ever seeing the failures.
func TestClientRetry503(t *testing.T) {
	var calls atomic.Int32
	srv := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		if calls.Add(1) <= 2 {
			return jsonAnswer(http.StatusServiceUnavailable, errorBody{Error: "migration fence"})
		}
		return jsonAnswer(http.StatusOK, map[string][]string{"feeds": {"f"}})
	})
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
	srv := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		calls.Add(1)
		return jsonAnswer(http.StatusBadGateway, errorBody{Error: "owner unreachable"})
	})
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
	srv := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		calls.Add(1)
		return stream.Head{Status: http.StatusServiceUnavailable}, nil
	})
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
	srv := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		if calls.Add(1) <= 2 {
			return stream.Head{}, nil // the client sees an abrupt EOF
		}
		return jsonAnswer(http.StatusOK, map[string][]string{"feeds": {}})
	})
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
	owner := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		return stream.Head{Status: http.StatusOK, ContentType: OpsMediaType}, appendResults(nil, []OpResult{{Found: true}})
	})
	stale := streamtest.NewServer(t, func(*stream.Request) (stream.Head, []byte) {
		hd, body := jsonAnswer(http.StatusMisdirectedRequest, errorBody{Error: "not the owner", Leader: owner.URL})
		hd.Leader = owner.URL
		return hd, body
	})
	res, err := NewClient(stale.URL).Do("f", []Op{{Type: "write", Key: "k", Value: []byte("v")}})
	if err != nil {
		t.Fatalf("client did not follow Leader: %v", err)
	}
	if len(res) != 1 || res[0].Key != "k" || !res[0].Found {
		t.Fatalf("results = %+v", res)
	}

	// Two nodes pointing 421 at each other must not loop.
	var a, b string
	bounce := func(other *string) func(*stream.Request) (stream.Head, []byte) {
		return func(*stream.Request) (stream.Head, []byte) {
			hd, body := jsonAnswer(http.StatusMisdirectedRequest, errorBody{Error: "not the owner"})
			hd.Leader = *other
			return hd, body
		}
	}
	a = streamtest.NewServer(t, bounce(&b)).URL
	b = streamtest.NewServer(t, bounce(&a)).URL
	if _, err := NewClient(a).Do("f", nil); err == nil {
		t.Fatal("mutual 421s must surface an error, not loop")
	}
}

package stream_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"grub/internal/stream"
	"grub/internal/stream/streamtest"
)

// echoGateway serves streams that answer every request with 200 and
// "route feed body"; open counts the streams it holds.
func echoGateway(t *testing.T) (url string, open *atomic.Int64) {
	open = new(atomic.Int64)
	h := streamtest.Handler(func(req *stream.Request) (stream.Head, []byte) {
		return stream.Head{Status: http.StatusOK, ContentType: "text/plain"}, []byte(req.String() + " " + string(req.Body))
	})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		open.Add(1)
		defer open.Add(-1)
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv.URL, open
}

func waitOpen(t *testing.T, open *atomic.Int64, want int64) {
	t.Helper()
	for deadline := time.Now().Add(3 * time.Second); open.Load() != want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d streams open, want %d", open.Load(), want)
		}
	}
}

// TestStreamPoolSharesCapsAndCloses: sequential sends share one stream;
// concurrent ones open more, of which the pool keeps MaxIdleConnsPerHost;
// Close ends them, and a send after Close still goes, on a stream it does
// not keep.
func TestStreamPoolSharesCapsAndCloses(t *testing.T) {
	url, open := echoGateway(t)
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}, Timeout: 5 * time.Second}
	var p stream.Pool
	send := func(method, body string) {
		req := stream.Request{Route: stream.RouteGet, Feed: "f", Key: "y=1"}
		if method == http.MethodPost {
			req = stream.Request{Route: stream.RouteCreateFeed, Body: []byte(body)}
		}
		a, err := p.Send(hc, url, &req)
		if err != nil {
			t.Error(err)
			return
		}
		defer a.Close()
		if want := req.String() + " " + body; a.Status != http.StatusOK || string(a.Body) != want || a.ContentType != "text/plain" {
			t.Errorf("answer %d %+v %q, want 200 text/plain %q", a.Status, a.Head, a.Body, want)
		}
	}
	send("POST", "first")
	send("GET", "")
	waitOpen(t, open, 1)

	var wg sync.WaitGroup
	start := make(chan struct{})
	for range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			send("POST", "concurrent")
		}()
	}
	close(start)
	wg.Wait()
	if n := open.Load(); n > 2 {
		waitOpen(t, open, 2)
	}

	p.Close()
	waitOpen(t, open, 0)
	send("GET", "")
	waitOpen(t, open, 0)
}

// TestStreamPoolRefusedOffer: a server that does not open the stream refuses
// the send, with an error naming it and its status, and an error answer reads
// as its JSON error message, or its status when it has none.
func TestStreamPoolRefusedOffer(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"fenced"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var p stream.Pool
	defer p.Close()
	_, err := p.Send(nil, srv.URL, &stream.Request{Route: stream.RouteOps, Feed: "f", Body: []byte("batch")})
	if err == nil || !strings.Contains(err.Error(), srv.URL) || !strings.Contains(err.Error(), "503") {
		t.Errorf("send to a server that answers 503 over HTTP: %v, want an error naming %s and 503", err, srv.URL)
	}
	for body, want := range map[string]string{`{"error":"fenced"}`: "fenced", "not json": "HTTP 502"} {
		if got := (&stream.Answer{Head: stream.Head{Status: http.StatusBadGateway}, Body: []byte(body)}).ErrorText(); got != want {
			t.Errorf("error text of %q = %q, want %q", body, got, want)
		}
	}
}

// TestStreamPoolCapsAnswers: an answer frame that claims more than stream.MaxAnswer
// bytes is an error before any of its body is read, and ends the stream.
func TestStreamPoolCapsAnswers(t *testing.T) {
	ended := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + stream.Proto + "\r\n\r\n")
		brw.Write(binary.BigEndian.AppendUint32(nil, stream.MaxAnswer+1))
		brw.WriteString("more to come")
		brw.Flush()
		io.Copy(io.Discard, brw) // until the client hangs up
		close(ended)
	}))
	defer srv.Close()
	var p stream.Pool
	defer p.Close()
	if _, err := p.Send(&http.Client{Timeout: 2 * time.Second}, srv.URL, &stream.Request{Route: stream.RouteHealth}); !errors.Is(err, stream.ErrFrameTooLarge) {
		t.Fatalf("oversize answer: %v, want stream.ErrFrameTooLarge", err)
	}
	select {
	case <-ended:
	case <-time.After(3 * time.Second):
		t.Fatal("the stream outlived its oversize answer")
	}
}

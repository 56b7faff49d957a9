package stream

import (
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoGateway serves streams that answer every request, the upgrading one
// included, with 200 and "method uri body"; open counts the streams it holds.
func echoGateway(t *testing.T) (url string, open *atomic.Int64) {
	open = new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil || r.Header.Get("Upgrade") != Proto {
			http.Error(w, `{"error":"no stream offered"}`, http.StatusBadRequest)
			return
		}
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		open.Add(1)
		defer open.Add(-1)
		defer conn.Close()
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + Proto + "\r\n\r\n")
		line := r.Method + " " + r.URL.RequestURI()
		for {
			reply := line + " " + string(body)
			brw.Write(AppendAnswer(nil, &Head{Status: http.StatusOK, ContentType: "text/plain"}, len(reply)))
			brw.WriteString(reply)
			if brw.Flush() != nil {
				return
			}
			p, err := ReadFrame(brw.Reader, 1<<20)
			if err != nil {
				return
			}
			var req Request
			if err := DecodeRequest(*p, &req); err != nil {
				t.Error(err)
				return
			}
			line, body = req.String(), req.Body
		}
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
	var p Pool
	send := func(method, body string) {
		req := Request{Route: RouteGet, Feed: "f", Key: "y=1"}
		if method == http.MethodPost {
			req = Request{Route: RouteCreateFeed, Body: []byte(body)}
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

// TestStreamPoolFallsBackToHTTP: a server that ignores the offer answers over
// HTTP, and its error answer reads as its JSON error message.
func TestStreamPoolFallsBackToHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"fenced"}`, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var p Pool
	defer p.Close()
	a, err := p.Send(nil, srv.URL, &Request{Route: RouteOps, Feed: "f", Body: []byte("batch")})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Status != http.StatusServiceUnavailable || a.RetryAfter != 1 || a.ErrorText() != "fenced" {
		t.Errorf("answer %d %+v %q (%q), want 503, Retry-After and error fenced", a.Status, a.Head, a.Body, a.ErrorText())
	}
	if got := (&Answer{Head: Head{Status: http.StatusBadGateway}, Body: []byte("not json")}).ErrorText(); got != "HTTP 502" {
		t.Errorf("error text of a body without an error field = %q, want HTTP 502", got)
	}
}

// TestStreamPoolCapsAnswers: an answer frame that claims more than MaxAnswer
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
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + Proto + "\r\n\r\n")
		brw.Write(binary.BigEndian.AppendUint32(nil, MaxAnswer+1))
		brw.WriteString("more to come")
		brw.Flush()
		io.Copy(io.Discard, brw) // until the client hangs up
		close(ended)
	}))
	defer srv.Close()
	var p Pool
	defer p.Close()
	if _, err := p.Send(&http.Client{Timeout: 2 * time.Second}, srv.URL, &Request{Route: RouteHealth}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversize answer: %v, want ErrFrameTooLarge", err)
	}
	select {
	case <-ended:
	case <-time.After(3 * time.Second):
		t.Fatal("the stream outlived its oversize answer")
	}
}

package stream

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// errNotServed: the gateway did not serve the request (the write failed, GOAWAY
// came, or a GET's connection failed before any answer byte), so it may go again.
var errNotServed = errors.New("stream: request not served")

// MaxAnswer caps the bytes of one answer a Pool reads, so a peer cannot make
// a node buffer without bound. The largest answers are shard snapshots; the
// cap is 32 times the gateway's default request body cap.
const MaxAnswer = 256 << 20

// Answer is a gateway's answer to one request. Body lies in a pooled buffer
// that Close gives back.
type Answer struct {
	Head
	Body []byte
	buf  *[]byte
}

// Close gives the body's buffer back; Body must not be used after.
func (a *Answer) Close() {
	if a.buf != nil {
		PutBuf(a.buf)
		a.buf, a.Body = nil, nil
	}
}

// ErrorText is an error answer's message: the "error" field of its JSON body,
// or its status when the body carries none.
func (a *Answer) ErrorText() string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(a.Body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return fmt.Sprintf("HTTP %d", a.Status)
}

// Pool holds a client's idle streams, per base URL. The zero Pool is ready to
// use; Close ends the streams it holds.
type Pool struct {
	mu     sync.Mutex
	idle   map[string][]*conn
	closed bool
}

// Send sends req to the gateway at base ("http://host:port") and returns its
// answer, whatever the status; it keeps nothing of req once it returns. It
// goes over an idle stream to base when there is one, else over HTTP
// offering one. hc (nil: http.DefaultClient) configures the exchange:
// its Transport sends the upgrading request, its Timeout bounds each
// exchange, and its Transport's MaxIdleConnsPerHost caps the idle streams.
// A request the stream did not serve (errNotServed) goes again at once on a
// fresh connection; no other is resent.
func (p *Pool) Send(hc *http.Client, base string, req *Request) (Answer, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	if s := p.take(base); s != nil {
		buf := GetBuf()
		*buf = AppendRequest(*buf, req)
		a, err := s.exchange(*buf, req.idempotent())
		PutBuf(buf)
		if err == nil {
			p.put(hc, base, s)
			return a, nil
		}
		s.rwc.Close()
		if !errors.Is(err, errNotServed) {
			return Answer{}, err
		}
	}
	return p.upgrade(hc, base, req)
}

// Close ends every idle stream, and every stream handed back after.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for _, ss := range p.idle {
		for _, s := range ss {
			s.rwc.Close()
		}
	}
	clear(p.idle)
}

// newHTTPRequest is req as HTTP, to the gateway at base ("http://host:port"):
// its route's method and request-URI, the headers that stand for its fields,
// and a copy of its body, since a Transport may still read the body after the
// answer is in.
func newHTTPRequest(ctx context.Context, base string, req *Request) (*http.Request, error) {
	var rd io.Reader
	if req.Body != nil {
		rd = bytes.NewReader(bytes.Clone(req.Body))
	}
	hr, err := http.NewRequestWithContext(ctx, req.method(), base+req.uri(), rd)
	if err == nil {
		req.headers(hr.Header.Add)
	}
	return hr, err
}

// upgrade sends a request over HTTP with the stream offered. The Transport's
// RoundTrip sends it: http.Client.Do, with Timeout set, would hand a 101 over
// with a read-only body and a timer that later closes the connection. The
// request's context bounds the exchange instead, which is why any answer but
// a 101 is read whole before upgrade returns it. A 101 and the answer frame
// behind it open a stream for the pool.
func (p *Pool) upgrade(hc *http.Client, base string, req *Request) (Answer, error) {
	ctx := context.Background()
	if hc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
		defer cancel()
	}
	hr, err := newHTTPRequest(ctx, base, req)
	if err != nil {
		return Answer{}, err
	}
	hr.Header.Set("Connection", "Upgrade")
	hr.Header.Set("Upgrade", Proto)
	resp, err := cmp.Or[http.RoundTripper](hc.Transport, http.DefaultTransport).RoundTrip(hr)
	if err != nil {
		return Answer{}, err
	}
	if resp.StatusCode != http.StatusSwitchingProtocols {
		defer resp.Body.Close()
		buf, err := ReadPooled(resp.Body, MaxAnswer+1)
		if err != nil {
			return Answer{}, err
		}
		if len(*buf) > MaxAnswer {
			PutBuf(buf)
			return Answer{}, fmt.Errorf("stream: %s: answer exceeds %d bytes", req.String(), MaxAnswer)
		}
		return Answer{Head: HeadOf(resp.StatusCode, resp.Header), Body: *buf, buf: buf}, nil
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if !ok || resp.Header.Get("Upgrade") != Proto {
		resp.Body.Close()
		return Answer{}, fmt.Errorf("stream: %s: 101 to Upgrade %q is not a writable %s stream", req.String(), resp.Header.Get("Upgrade"), Proto)
	}
	s := &conn{rwc: rwc, br: bufio.NewReader(rwc), timeout: hc.Timeout}
	if s.timeout > 0 {
		s.timer = time.AfterFunc(s.timeout, func() { rwc.Close() })
	}
	a, err := s.exchange(nil, false)
	if err != nil {
		rwc.Close()
		return Answer{}, err
	}
	p.put(hc, base, s)
	return a, nil
}

// conn is the client end of one stream, owned by one caller at a time.
type conn struct {
	rwc     io.ReadWriteCloser
	br      *bufio.Reader
	timeout time.Duration
	timer   *time.Timer // closes rwc when an exchange outlives timeout
}

// exchange writes frame (nil for the upgrading request, whose answer is on its
// way) and reads the answer. An error wrapping errNotServed means the gateway
// cannot have served the frame, or, when the request is idempotent, that the
// connection failed before any of its answer came.
func (s *conn) exchange(frame []byte, idempotent bool) (Answer, error) {
	if s.timer != nil {
		s.timer.Reset(s.timeout)
	}
	var err error
	if frame != nil {
		_, err = s.rwc.Write(frame)
	}
	unanswered := err != nil
	if err == nil {
		_, err = s.br.Peek(1)
		unanswered = err != nil && idempotent
	}
	var buf *[]byte
	if err == nil {
		buf, err = ReadFrame(s.br, MaxAnswer)
	}
	switch {
	case s.timer != nil && !s.timer.Stop() && err != nil:
		return Answer{}, fmt.Errorf("stream: no answer within %v: %v", s.timeout, err)
	case unanswered:
		return Answer{}, fmt.Errorf("%w: %v", errNotServed, err)
	case err != nil:
		return Answer{}, err
	case len(*buf) == 0:
		PutBuf(buf)
		return Answer{}, errNotServed // GOAWAY
	}
	hd, body, err := DecodeAnswer(*buf)
	if err != nil {
		PutBuf(buf)
		return Answer{}, err
	}
	return Answer{Head: hd, Body: body, buf: buf}, nil
}

func (p *Pool) take(base string) *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	ss := p.idle[base]
	if len(ss) == 0 {
		return nil
	}
	p.idle[base] = ss[:len(ss)-1]
	return ss[len(ss)-1]
}

// Idle is the number of idle streams the pool holds to base.
func (p *Pool) Idle(base string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle[base])
}

// put pools s for the next caller, up to hc's idle connections per host.
func (p *Pool) put(hc *http.Client, base string, s *conn) {
	limit := http.DefaultMaxIdleConnsPerHost
	if t, ok := hc.Transport.(*http.Transport); ok && t.MaxIdleConnsPerHost > 0 {
		limit = t.MaxIdleConnsPerHost
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle[base]) >= limit {
		s.rwc.Close()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]*conn)
	}
	p.idle[base] = append(p.idle[base], s)
}

package stream

import (
	"bufio"
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
// goes over an idle stream to base when there is one, else over a stream it
// opens. hc (nil: http.DefaultClient) configures the exchange: its Transport
// opens streams, its Timeout bounds each exchange, and its Transport's
// MaxIdleConnsPerHost caps the idle streams. A request the stream did not
// serve (errNotServed) goes again at once on a fresh stream; no other is
// resent.
func (p *Pool) Send(hc *http.Client, base string, req *Request) (Answer, error) {
	if hc == nil {
		hc = http.DefaultClient
	}
	buf := GetBuf()
	defer PutBuf(buf)
	*buf = AppendRequest(*buf, req)
	if s := p.take(base); s != nil {
		if a, err := p.roundTrip(hc, base, s, *buf, req.idempotent()); !errors.Is(err, errNotServed) {
			return a, err
		}
	}
	s, err := open(hc, base)
	if err != nil {
		return Answer{}, err
	}
	return p.roundTrip(hc, base, s, *buf, req.idempotent())
}

// roundTrip sends frame on s and reads its answer. s goes back to the pool
// when the exchange succeeds, and is closed when it fails.
func (p *Pool) roundTrip(hc *http.Client, base string, s *conn, frame []byte, idempotent bool) (Answer, error) {
	a, err := s.exchange(frame, idempotent)
	if err != nil {
		s.rwc.Close()
		return Answer{}, err
	}
	p.put(hc, base, s)
	return a, nil
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

// open opens a stream to the gateway at base with a GET of Path offering
// Proto, sent by the Transport's RoundTrip under a context: http.Client.Do,
// with Timeout set, would hand a 101 over read-only, on a timer that later
// closes it. Any answer but a 101 with Proto is an error naming base.
func open(hc *http.Client, base string) (*conn, error) {
	ctx := context.Background()
	if hc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
		defer cancel()
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+Path, nil)
	if err != nil {
		return nil, err
	}
	hr.Header.Set("Connection", "Upgrade")
	hr.Header.Set("Upgrade", Proto)
	resp, err := cmp.Or[http.RoundTripper](hc.Transport, http.DefaultTransport).RoundTrip(hr)
	if err != nil {
		return nil, err
	}
	rwc, ok := resp.Body.(io.ReadWriteCloser)
	if resp.StatusCode != http.StatusSwitchingProtocols || !ok || resp.Header.Get("Upgrade") != Proto {
		resp.Body.Close()
		return nil, fmt.Errorf("stream: %s refused a %s stream: HTTP %s", base, Proto, resp.Status)
	}
	s := &conn{rwc: rwc, br: bufio.NewReader(rwc), timeout: hc.Timeout}
	if s.timeout > 0 {
		s.timer = time.AfterFunc(s.timeout, func() { rwc.Close() })
	}
	return s, nil
}

// conn is the client end of one stream, owned by one caller at a time.
type conn struct {
	rwc     io.ReadWriteCloser
	br      *bufio.Reader
	timeout time.Duration
	timer   *time.Timer // closes rwc when an exchange outlives timeout
}

// exchange writes frame and reads the answer. An error wrapping errNotServed
// means the gateway cannot have served the frame, or, when the request is
// idempotent, that the connection failed before any of its answer came.
func (s *conn) exchange(frame []byte, idempotent bool) (Answer, error) {
	if s.timer != nil {
		s.timer.Reset(s.timeout)
	}
	_, err := s.rwc.Write(frame)
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

package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"grub/internal/obs"
	"grub/internal/stream"
)

const (
	// goawayLinger bounds how long a gateway ending a stream waits for the
	// client to hang up, so that closing never resets bytes it has yet to read.
	goawayLinger = 500 * time.Millisecond
	// streamDrain bounds how long a closing gateway waits for the answers
	// of the frames its streams are serving, as grubd bounds its HTTP drain.
	streamDrain = 10 * time.Second
)

// frameBody is a frame's body as a Request body.
type frameBody struct{ bytes.Reader }

func newFrameBody(body []byte) *frameBody {
	fb := new(frameBody)
	fb.Reset(body)
	return fb
}

func (*frameBody) Close() error { return nil }

// streamSet is a gateway's open streams. http.Server's Close and Shutdown
// never see a hijacked connection, so the gateway's Close and Kill end them
// through drain.
type streamSet struct {
	mu      sync.Mutex
	open    map[*serverStream]bool
	closing atomic.Bool    // set under mu
	serving sync.WaitGroup // frames begun and not yet answered; Add under mu

	opened *obs.Gauge   // grub_streams_open
	frames *obs.Counter // grub_stream_frames_total
}

func (ss *streamSet) track(s *serverStream, open bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.open == nil {
		ss.open = make(map[*serverStream]bool)
	}
	if open {
		ss.open[s] = true
	} else {
		delete(ss.open, s)
	}
	ss.opened.Set(float64(len(ss.open)))
}

// begin counts a frame as in flight and reports whether to serve it: a
// draining gateway serves no frame it had not begun.
func (ss *streamSet) begin() bool {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closing.Load() {
		return false
	}
	ss.serving.Add(1)
	return true
}

// drain ends every stream: one waiting for a frame or reading one wakes to
// send GOAWAY, and drain waits, up to streamDrain, for the frames being served
// to be answered. Each stream sets its read deadline before it reads closing,
// so the deadline set here is never lost.
func (ss *streamSet) drain() {
	ss.mu.Lock()
	ss.closing.Store(true)
	for s := range ss.open {
		s.conn.SetReadDeadline(time.Unix(1, 0))
	}
	ss.mu.Unlock()
	done := make(chan struct{})
	go func() { ss.serving.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(streamDrain):
	}
}

// streamHandler serves the gateway's routes (next) over HTTP, and over a
// stream to a client that offers one.
type streamHandler struct {
	next    http.Handler
	g       *Gateway
	maxBody int64
}

func (h *streamHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ss := &h.g.streams
	if r.Header.Get("Upgrade") != stream.Proto || !ss.begin() {
		h.next.ServeHTTP(w, r) // a draining gateway's http.Server drains this
		return
	}
	// Request.Body is unusable once the connection is hijacked, so the body
	// is read first. One past the cap, or a writer that cannot hijack, is
	// served over HTTP as if no offer had been made.
	body, err := io.ReadAll(io.LimitReader(r.Body, h.maxBody+1))
	r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
	var conn net.Conn
	var brw *bufio.ReadWriter
	if err == nil && int64(len(body)) <= h.maxBody {
		conn, brw, err = http.NewResponseController(w).Hijack()
	}
	if conn == nil {
		defer ss.serving.Done()
		h.next.ServeHTTP(w, r)
		return
	}
	defer conn.Close()
	conn.SetDeadline(time.Time{})
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	s := &serverStream{conn: conn, br: brw.Reader, bw: brw.Writer, srv: cmp.Or(srv, &http.Server{}), fw: frameWriter{header: make(http.Header)}}
	ss.track(s, true)
	defer ss.track(s, false)
	s.bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + stream.Proto + "\r\n\r\n")
	base := (&http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, Host: r.Host, RemoteAddr: r.RemoteAddr}).WithContext(ctx)
	req := r.WithContext(ctx)
	req.Body = newFrameBody(body)
	var in *[]byte // the pooled frame req's body lies in
	for {
		werr := h.answer(s, req, err)
		if in != nil {
			stream.PutBuf(in)
		}
		if werr != nil || err != nil || !s.wait(ss) {
			if werr == nil && err != nil { // the unread frame leaves no next frame to find
				s.goaway()
			}
			return
		}
		if in, err = stream.ReadFrame(s.br, h.maxBody); err != nil && err != stream.ErrFrameTooLarge || !ss.begin() {
			if ss.closing.Load() { // drain cut the read short, or the frame is not served
				s.goaway()
			}
			return
		}
		if err == nil {
			req = frameRequest(base, *in)
		}
	}
}

// answer serves req (nil: the frame did not decode), or the oversize frame err
// names, and writes the answer frame. The frame is then no longer in flight.
func (h *streamHandler) answer(s *serverStream, req *http.Request, err error) error {
	defer h.g.streams.serving.Done()
	fw := &s.fw
	fw.status, fw.body = 0, stream.GetBuf()
	defer stream.PutBuf(fw.body)
	clear(fw.header)
	switch {
	case err != nil:
		writeJSON(fw, http.StatusRequestEntityTooLarge, errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", h.maxBody)})
	case req == nil:
		writeJSON(fw, http.StatusBadRequest, errorBody{Error: "stream: malformed request frame"})
	default:
		h.next.ServeHTTP(fw, req)
	}
	h.g.streams.frames.Inc() // before the answer is out, so a client holding it sees the count
	head := stream.GetBuf()
	defer stream.PutBuf(head)
	*head = stream.AppendAnswer(*head, cmp.Or(fw.status, http.StatusOK), fw.header, len(*fw.body))
	s.conn.SetWriteDeadline(after(s.srv.WriteTimeout))
	s.bw.Write(*head)
	s.bw.Write(*fw.body)
	return s.bw.Flush()
}

// frameRequest builds the request a frame carries on base, nil when it does
// not decode. Its body aliases p.
func frameRequest(base *http.Request, p []byte) *http.Request {
	method, uri, h, body, err := stream.DecodeRequest(p)
	if err != nil {
		return nil
	}
	u, err := url.ParseRequestURI(uri)
	if err != nil {
		return nil
	}
	r := new(http.Request)
	*r = *base
	r.Method, r.URL, r.RequestURI, r.Header, r.ContentLength = method, u, uri, h, int64(len(body))
	if r.Body = http.NoBody; len(body) > 0 {
		r.Body = newFrameBody(body)
	}
	return r
}

// serverStream is the gateway end of one stream, under the serving
// http.Server's limits (srv).
type serverStream struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	srv  *http.Server
	fw   frameWriter
}

// after is now plus the first positive limit of d (an http.Server limit, then
// the one it falls back to), or no deadline when there is none.
func after(d ...time.Duration) time.Time {
	for _, d := range d {
		if d > 0 {
			return time.Now().Add(d)
		}
	}
	return time.Time{}
}

// wait waits, up to the idle limit, for the next frame to begin, and reports
// whether to read it, which the frame limit then bounds. A stream that
// drains, or idles past its limit, sends GOAWAY instead.
func (s *serverStream) wait(ss *streamSet) bool {
	s.conn.SetReadDeadline(after(s.srv.IdleTimeout, s.srv.ReadTimeout)) // before closing is read: see drain
	var err error
	if !ss.closing.Load() {
		_, err = s.br.Peek(1)
	}
	var ne net.Error
	if ss.closing.Load() || errors.As(err, &ne) && ne.Timeout() {
		s.goaway()
		return false
	}
	s.conn.SetReadDeadline(after(s.srv.ReadHeaderTimeout, s.srv.ReadTimeout))
	return err == nil
}

// goaway sends GOAWAY, then discards what the client still sends until it
// hangs up or goawayLinger passes.
func (s *serverStream) goaway() {
	s.conn.SetDeadline(time.Now().Add(goawayLinger))
	s.bw.WriteString(stream.Goaway)
	if s.bw.Flush() != nil {
		return
	}
	if cw, ok := s.conn.(interface{ CloseWrite() error }); ok {
		cw.CloseWrite()
	}
	io.Copy(io.Discard, s.br)
}

// frameWriter is a stream request's http.ResponseWriter: it keeps the status,
// header and body for the answer frame.
type frameWriter struct {
	header http.Header
	status int
	body   *[]byte
}

func (fw *frameWriter) Header() http.Header { return fw.header }

func (fw *frameWriter) WriteHeader(code int) {
	if fw.status == 0 {
		fw.status = code
	}
}

func (fw *frameWriter) Write(p []byte) (int, error) {
	fw.WriteHeader(http.StatusOK)
	*fw.body = append(*fw.body, p...)
	return len(p), nil
}

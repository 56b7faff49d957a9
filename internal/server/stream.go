package server

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
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

// streamHandler serves the gateway's routes over HTTP (next, the mux), and
// over a stream to a client that offers one: a typed frame goes straight to
// its route's handler, a route-0 frame and the upgrading request through
// next.
type streamHandler struct {
	next http.Handler
	api  *api
}

func (h *streamHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ss := &h.api.g.streams
	if r.Header.Get("Upgrade") != stream.Proto || !ss.begin() {
		h.next.ServeHTTP(w, r) // a draining gateway's http.Server drains this
		return
	}
	// Request.Body is unusable once the connection is hijacked, so the body
	// is read first. One past the cap, or a writer that cannot hijack, is
	// served over HTTP as if no offer had been made.
	body, err := io.ReadAll(io.LimitReader(r.Body, h.api.maxBody+1))
	r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
	var conn net.Conn
	var brw *bufio.ReadWriter
	if err == nil && int64(len(body)) <= h.api.maxBody {
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
	s := &serverStream{conn: conn, br: brw.Reader, bw: brw.Writer, srv: cmp.Or(srv, &http.Server{}),
		ctx: ctx, host: r.Host, remote: r.RemoteAddr, fw: frameWriter{header: make(http.Header)}}
	ss.track(s, true)
	defer ss.track(s, false)
	s.bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + stream.Proto + "\r\n\r\n")
	req := r.WithContext(ctx)
	req.Body = io.NopCloser(bytes.NewReader(body))
	var in *[]byte // the frame to serve when req is nil
	for {
		werr := h.answer(s, req, in, err)
		if in != nil {
			stream.PutBuf(in)
		}
		if werr != nil || err != nil || !s.wait(ss) {
			if werr == nil && err != nil { // the unread frame leaves no next frame to find
				s.goaway()
			}
			return
		}
		if in, err = stream.ReadFrame(s.br, h.api.maxBody); err != nil && err != stream.ErrFrameTooLarge || !ss.begin() {
			if ss.closing.Load() { // drain cut the read short, or the frame is not served
				s.goaway()
			}
			return
		}
		req = nil
	}
}

// answer serves req, or else the frame in, or answers the oversize frame err
// names, and writes the answer frame. The frame is then no longer in flight.
func (h *streamHandler) answer(s *serverStream, req *http.Request, in *[]byte, err error) error {
	defer h.api.g.streams.serving.Done()
	rep := &s.rep
	*rep = reply{body: stream.GetBuf()}
	defer stream.PutBuf(rep.body)
	switch {
	case err != nil:
		rep.tooLarge(h.api.maxBody)
	case req != nil:
		h.serveMux(s, req)
	default:
		h.serveFrame(s, *in)
	}
	h.api.g.streams.frames.Inc() // before the answer is out, so a client holding it sees the count
	rep.Status = cmp.Or(rep.Status, http.StatusOK)
	head := stream.GetBuf()
	defer stream.PutBuf(head)
	*head = stream.AppendAnswer(*head, &rep.Head, len(*rep.body))
	s.conn.SetWriteDeadline(after(s.srv.WriteTimeout))
	s.bw.Write(*head)
	s.bw.Write(*rep.body)
	return s.bw.Flush()
}

// serveFrame serves the request frame p: a typed one on the stream's reused
// call, a route-0 one through the mux.
func (h *streamHandler) serveFrame(s *serverStream, p []byte) {
	c := &s.call
	err := stream.DecodeRequest(p, &c.Request)
	if err == nil && c.Route != stream.RouteHTTP {
		c.r, c.ctx = nil, s.ctx
		h.api.typed[c.Route].serve(h.api, c, &s.rep)
		return
	}
	var r *http.Request
	if err == nil {
		if _, err = url.ParseRequestURI(c.URI); err == nil {
			r, err = http.NewRequestWithContext(s.ctx, c.Method, c.URI, bytes.NewReader(c.Body))
		}
	}
	if err != nil {
		s.rep.json(http.StatusBadRequest, errorBody{Error: "stream: malformed request frame"})
		return
	}
	r.Header, r.RequestURI, r.Host, r.RemoteAddr = c.Header, c.URI, s.host, s.remote
	h.serveMux(s, r)
}

// serveMux serves an HTTP request through the mux, its answer caught by the
// stream's frameWriter.
func (h *streamHandler) serveMux(s *serverStream, r *http.Request) {
	fw := &s.fw
	clear(fw.header)
	fw.status, fw.body = 0, s.rep.body
	h.next.ServeHTTP(fw, r)
	s.rep.Head = stream.HeadOf(fw.status, fw.header)
}

// serverStream is the gateway end of one stream, under the serving
// http.Server's limits (srv). ctx, host and remote are the upgrading
// request's; call is the typed frame being served, reused frame to frame.
type serverStream struct {
	conn         net.Conn
	br           *bufio.Reader
	bw           *bufio.Writer
	srv          *http.Server
	ctx          context.Context
	host, remote string
	call         call
	rep          reply
	fw           frameWriter
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
	if ss.closing.Load() || err != nil && timedOut(err) {
		s.goaway()
		return false
	}
	s.conn.SetReadDeadline(after(s.srv.ReadHeaderTimeout, s.srv.ReadTimeout))
	return err == nil
}

func timedOut(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
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

// frameWriter is the http.ResponseWriter of a request a stream serves
// through the mux: it keeps the status, header and body for the answer
// frame.
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

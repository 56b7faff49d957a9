package server

import (
	"bufio"
	"cmp"
	"errors"
	"io"
	"net"
	"net/http"
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

// openStream takes over r's connection for the stream r offers at
// stream.Path (serveStream). It refuses over HTTP an offer of another
// version (426), to a draining gateway (503) or on a connection that cannot
// be taken over (500).
func (a *api) openStream(w http.ResponseWriter, r *http.Request) {
	rep := reply{body: new([]byte)} // not pooled: it would be held for the stream's life
	switch {
	case r.Header.Get("Upgrade") != stream.Proto:
		w.Header().Set("Upgrade", stream.Proto)
		rep.json(http.StatusUpgradeRequired, errorBody{Error: "stream: offer Upgrade: " + stream.Proto})
	case a.g.streams.closing.Load():
		rep.unavailable("stream: gateway closing", "")
	default:
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err == nil {
			a.serveStream(conn, brw, r)
			return
		}
		rep.json(http.StatusInternalServerError, errorBody{Error: "stream: " + err.Error()})
	}
	rep.writeHTTP(w)
}

// serveStream answers 101 on conn and serves the stream's request frames,
// each straight to its route's handler, until the stream ends.
func (a *api) serveStream(conn net.Conn, brw *bufio.ReadWriter, r *http.Request) {
	ss := &a.g.streams
	defer conn.Close()
	conn.SetDeadline(time.Time{})
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	s := &serverStream{conn: conn, br: brw.Reader, bw: brw.Writer, srv: cmp.Or(srv, &http.Server{}), call: call{ctx: r.Context()}}
	ss.track(s, true)
	defer ss.track(s, false)
	s.bw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + stream.Proto + "\r\n\r\n")
	werr := s.bw.Flush()
	for werr == nil && s.wait(ss) {
		in, err := stream.ReadFrame(s.br, a.maxBody)
		if err != nil && err != stream.ErrFrameTooLarge || !ss.begin() {
			if ss.closing.Load() { // drain cut the read short, or the frame is not served
				s.goaway()
			}
			break
		}
		rep := &s.rep
		*rep = reply{body: stream.GetBuf()}
		switch {
		case err != nil:
			rep.tooLarge(a.maxBody)
		case stream.DecodeRequest(*in, &s.call.Request) != nil:
			rep.json(http.StatusBadRequest, errorBody{Error: "stream: malformed request frame"})
		default:
			a.serve[s.call.Route](a, &s.call, rep)
		}
		werr = s.answer(ss, rep)
		stream.PutBuf(rep.body)
		if in != nil {
			stream.PutBuf(in)
		}
		if err != nil { // the unread frame leaves no next frame to find
			if werr == nil {
				s.goaway()
			}
			break
		}
	}
}

// answer writes rep as the stream's next answer frame; the request it answers
// is then no longer in flight.
func (s *serverStream) answer(ss *streamSet, rep *reply) error {
	defer ss.serving.Done()
	ss.frames.Inc() // before the answer is out, so a client holding it sees the count
	rep.Status = cmp.Or(rep.Status, http.StatusOK)
	s.conn.SetWriteDeadline(after(s.srv.WriteTimeout))
	s.bw.Write(stream.AppendAnswer(s.bw.AvailableBuffer(), &rep.Head, len(*rep.body)))
	s.bw.Write(*rep.body)
	return s.bw.Flush()
}

// serverStream is the gateway end of one stream, under the serving
// http.Server's limits (srv). call is the frame being served and rep its
// answer, both reused frame to frame; call's context is the opening
// request's.
type serverStream struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	srv  *http.Server
	call call
	rep  reply
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

// Package streamtest serves fake gateways, which answer each Go-to-Go stream
// frame from a function, for tests of the clients that send through
// stream.Pool. A tamper proxy is a fake that forwards through a Pool.
package streamtest

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"grub/internal/stream"
)

// Handler serves GET stream.Path: it opens the stream a client offers and
// answers each request frame with the head and body f returns, until the
// client hangs up. A head whose Status is 0 hangs up instead, as a gateway
// that dies mid-exchange does. req.Body lies in the frame's buffer, which is
// reused once f's answer is out.
func Handler(f func(req *stream.Request) (stream.Head, []byte)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(http.MethodGet+" "+stream.Path, func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Upgrade") != stream.Proto {
			http.Error(w, `{"error":"no stream offered"}`, http.StatusUpgradeRequired)
			return
		}
		conn, brw, err := http.NewResponseController(w).Hijack()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer conn.Close()
		brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + stream.Proto + "\r\n\r\n")
		for brw.Flush() == nil {
			in, err := stream.ReadFrame(brw.Reader, 1<<30)
			if err != nil {
				return
			}
			var req stream.Request
			hd, body := stream.Head{}, []byte(nil)
			if stream.DecodeRequest(*in, &req) == nil {
				hd, body = f(&req)
			}
			if hd.Status == 0 {
				return
			}
			brw.Write(stream.AppendAnswer(nil, &hd, len(body)))
			brw.Write(body)
			stream.PutBuf(in)
		}
	})
	return mux
}

// NewServer starts a fake gateway that serves Handler(f), and closes it when
// tb ends.
func NewServer(tb testing.TB, f func(req *stream.Request) (stream.Head, []byte)) *httptest.Server {
	srv := httptest.NewServer(Handler(f))
	tb.Cleanup(srv.Close)
	return srv
}

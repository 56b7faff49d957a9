package server

import (
	"net/http"
	"strconv"
	"strings"

	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/stream"
)

// ReadMediaType names the binary read encoding (docs/API.md, "Binary read
// encoding"). GET /feeds/{id}/get and /range answer in it when the request's
// Accept header names it and in JSON, the default and the debug form,
// otherwise; the Content-Type says which.
const ReadMediaType = "application/x-grub-read"

// readResponse is a read route's answer: JSON-encodable as a whole, and able
// to append the part of itself that crosses the binary wire — the result,
// without the JSON envelope's echo of the request (id, lo, hi).
type readResponse interface {
	appendRead([]byte) ([]byte, error)
}

func (g *GetResponse) appendRead(b []byte) ([]byte, error) { return g.Result.AppendBinary(b) }

func (rr *RangeResponse) appendRead(b []byte) ([]byte, error) {
	return query.AppendRangeResults(b, rr.Results)
}

// writeBinary answers 200 with body in mediaType and an exact Content-Length.
func writeBinary(w http.ResponseWriter, mediaType string, body []byte) {
	w.Header().Set("Content-Type", mediaType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// readRoute counts one read route's responses and body bytes per encoding.
type readRoute struct {
	responses, bytes [2]*obs.Counter // indexed by encJSON, encBinary
}

const (
	encJSON = iota
	encBinary
)

func newReadRoute(reg *obs.Registry, route string) *readRoute {
	responses := reg.NewCounterVec("grub_read_responses_total",
		"Authenticated read responses served, by route (get, range) and encoding (json, binary).", "route", "encoding")
	bytes := reg.NewCounterVec("grub_read_response_bytes_total",
		"Body bytes of authenticated read responses, by route and encoding.", "route", "encoding")
	rt := &readRoute{}
	for enc, name := range [2]string{"json", "binary"} {
		rt.responses[enc], rt.bytes[enc] = responses.With(route, name), bytes.With(route, name)
	}
	return rt
}

// countingWriter counts the body bytes a JSON read response streams out.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += n
	return n, err
}

// write answers one read in the encoding the request asked for.
func (rt *readRoute) write(w http.ResponseWriter, r *http.Request, resp readResponse) {
	enc, n := encJSON, 0
	if strings.Contains(r.Header.Get("Accept"), ReadMediaType) {
		buf := stream.GetBuf()
		defer stream.PutBuf(buf)
		b, err := resp.appendRead(*buf)
		if err != nil {
			writeErr(w, err)
			return
		}
		*buf = b
		writeBinary(w, ReadMediaType, b)
		enc, n = encBinary, len(b)
	} else {
		cw := &countingWriter{ResponseWriter: w}
		writeJSON(cw, http.StatusOK, resp)
		n = cw.n
	}
	rt.responses[enc].Inc()
	rt.bytes[enc].Add(float64(n))
}

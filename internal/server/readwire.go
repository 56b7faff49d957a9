package server

import (
	"net/http"

	"grub/internal/obs"
	"grub/internal/query"
	"grub/internal/stream"
)

// ReadMediaType names the binary read encoding (docs/API.md, "Binary read
// encoding"). GET /feeds/{id}/get and /range answer in it when the request's
// Accept header names it and in JSON, the default and the debug form,
// otherwise; the Content-Type says which.
const ReadMediaType = stream.ReadMediaType

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

// write answers one read in the encoding the call asks for.
func (rt *readRoute) write(c *call, rep *reply, resp readResponse) {
	enc := encBinary
	if c.Flags&stream.JSONAnswer != 0 {
		enc = encJSON
		rep.json(http.StatusOK, resp)
	} else {
		b, err := resp.appendRead(*rep.body)
		if err != nil {
			rep.err(err)
			return
		}
		*rep.body, rep.ContentType = b, ReadMediaType
	}
	rt.responses[enc].Inc()
	rt.bytes[enc].Add(float64(len(*rep.body)))
}

package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"

	"grub/internal/core"
	"grub/internal/stream"
	"grub/internal/wire"
)

// OpsMediaType names the binary ops encoding (docs/API.md, "Binary ops
// encoding"), whose batch half is core.AppendOps and core.DecodeOps. POST
// /feeds/{id}/ops decodes a request body in it when the Content-Type names
// it, and answers in it when the Accept header names it; otherwise it speaks
// JSON, the default and the debug form.
const OpsMediaType = stream.OpsMediaType

// Flag bits of a result.
const (
	resultFound byte = 1 << iota
	resultErr
)

// appendResults appends a batch's results: int n, then per result a flags
// byte, the value (int length, bytes) and, when the err flag is set, the
// error string. A result's key is its op's, so it does not cross.
func appendResults(b []byte, results []OpResult) []byte {
	b = wire.AppendInt(b, len(results))
	for i := range results {
		res := &results[i]
		var flags byte
		if res.Found {
			flags |= resultFound
		}
		if res.Err != "" {
			flags |= resultErr
		}
		b = append(wire.AppendInt(append(b, flags), len(res.Value)), res.Value...)
		if res.Err != "" {
			b = wire.AppendString(b, res.Err)
		}
	}
	return b
}

// decodeResults decodes the answer to ops from an untrusted body: exactly
// one result per op, each keyed by its op's key, so nothing is sized from a
// count the body claims. Values alias one private copy of the body.
func decodeResults(body []byte, ops []Op) ([]OpResult, error) {
	r := wire.NewReader(body)
	if n := r.Int(); n != len(ops) {
		r.Fail("%d results for %d ops", n, len(ops))
		return nil, r.Err()
	}
	out := make([]OpResult, len(ops))
	for i := range out {
		flags := r.Byte()
		if flags&^(resultFound|resultErr) != 0 {
			r.Fail("result flags %#x", flags)
		}
		out[i] = OpResult{Key: ops[i].Key, Found: flags&resultFound != 0, Value: r.Bytes(r.Int())}
		if flags&resultErr != 0 {
			out[i].Err = r.OwnStr()
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeBatch decodes a POST /feeds/{id}/ops body in the form the call
// names.
func decodeBatch(c *call) ([]Op, error) {
	if c.Flags&stream.JSONBody != 0 {
		var req BatchRequest
		err := json.NewDecoder(bytes.NewReader(c.Body)).Decode(&req)
		return req.Ops, err
	}
	return core.DecodeOps(c.Body)
}

// batchLen is the op count of a batch's body, in either form (0 when it does
// not decode). A binary body is not decoded: its leading count is taken as
// it stands, capped at what the body could hold, since the owner that
// executes the batch checks the rest.
func batchLen(c *call) int {
	if c.Flags&stream.JSONBody == 0 {
		n, k := binary.Uvarint(c.Body)
		if k <= 0 {
			return 0
		}
		return int(min(n, uint64(len(c.Body)/core.MinOpWire)))
	}
	var req BatchRequest
	json.Unmarshal(c.Body, &req)
	return len(req.Ops)
}

// writeResults answers a batch in the form the call asks for.
func writeResults(c *call, rep *reply, results []OpResult) {
	if c.Flags&stream.JSONAnswer != 0 {
		rep.json(http.StatusOK, BatchResponse{Results: results})
		return
	}
	rep.ContentType = OpsMediaType
	*rep.body = appendResults(*rep.body, results)
}

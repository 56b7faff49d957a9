package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"grub/internal/core"
	"grub/internal/stream"
	"grub/internal/wire"
)

// OpsMediaType names the binary ops encoding (docs/API.md, "Binary ops
// encoding"), whose batch half is core.AppendOps and core.DecodeOps. POST
// /feeds/{id}/ops decodes a request body in it when the Content-Type names
// it, and answers in it when the Accept header names it; otherwise it speaks
// JSON, the default and the debug form.
const OpsMediaType = "application/x-grub-ops"

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

// binaryBatch reports whether a request's body is a binary batch.
func binaryBatch(r *http.Request) bool { return r.Header.Get("Content-Type") == OpsMediaType }

// decodeBatch decodes a POST /feeds/{id}/ops body in the form its
// Content-Type names, under the size cap (413 past it). Like decodeBody it
// reports whether decoding succeeded; the error answer is written when not.
func decodeBatch(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]Op, bool) {
	if !binaryBatch(r) {
		var req BatchRequest
		ok := decodeBody(w, r, maxBytes, &req)
		return req.Ops, ok
	}
	body, err := stream.ReadPooled(http.MaxBytesReader(w, r.Body, maxBytes))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", maxBytes)})
		} else {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("read body: %v", err)})
		}
		return nil, false
	}
	defer stream.PutBuf(body)
	ops, err := core.DecodeOps(*body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("decode: %v", err)})
		return nil, false
	}
	return ops, true
}

// batchLen is the op count of a request body already read, in either form
// (0 when it does not decode). A binary body is not decoded: its leading
// count is taken as it stands, capped at what the body could hold, since the
// owner that executes the batch checks the rest.
func batchLen(r *http.Request, body []byte) int {
	if binaryBatch(r) {
		n, k := binary.Uvarint(body)
		if k <= 0 {
			return 0
		}
		return int(min(n, uint64(len(body)/core.MinOpWire)))
	}
	var req BatchRequest
	json.Unmarshal(body, &req)
	return len(req.Ops)
}

// writeResults answers a batch in the form the request's Accept header asks
// for.
func writeResults(w http.ResponseWriter, r *http.Request, results []OpResult) {
	if !strings.Contains(r.Header.Get("Accept"), OpsMediaType) {
		writeJSON(w, http.StatusOK, BatchResponse{Results: results})
		return
	}
	buf := stream.GetBuf()
	defer stream.PutBuf(buf)
	*buf = appendResults(*buf, results)
	writeBinary(w, OpsMediaType, *buf)
}

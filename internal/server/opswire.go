package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"grub/internal/wire"
)

// OpsMediaType names the binary ops encoding (docs/API.md, "Binary ops
// encoding"). POST /feeds/{id}/ops decodes a request body in it when the
// Content-Type names it, and answers in it when the Accept header names it;
// otherwise it speaks JSON, the default and the debug form.
const OpsMediaType = "application/x-grub-ops"

// The code byte that opens an op. An op whose type is none of the three
// known ones crosses as opOther followed by the type, so the gateway reports
// it as a per-op "unknown op type" result, as it does for JSON.
const (
	opRead byte = iota
	opWrite
	opScan
	opOther
)

var opTypes = [...]string{opRead: "read", opWrite: "write", opScan: "scan"}

// Flag bits of a result.
const (
	resultFound byte = 1 << iota
	resultErr
)

// minOpWire is an op's smallest encoding, which bounds a decoded count by the
// bytes left: a code byte, an empty key, an empty value and scanLen 0.
const minOpWire = 4

// appendOps appends a batch: int n, then n ops. A negative ScanLen crosses
// as 0, which the feed treats the same.
func appendOps(b []byte, ops []Op) []byte {
	b = wire.AppendInt(b, len(ops))
	for i := range ops {
		op := &ops[i]
		switch op.Type {
		case "read":
			b = append(b, opRead)
		case "write":
			b = append(b, opWrite)
		case "scan":
			b = append(b, opScan)
		default:
			b = wire.AppendString(append(b, opOther), op.Type)
		}
		b = wire.AppendString(b, op.Key)
		b = append(wire.AppendInt(b, len(op.Value)), op.Value...)
		b = wire.AppendInt(b, max(op.ScanLen, 0))
	}
	return b
}

// decodeOps decodes a batch from an untrusted body. Every key and every value
// is an allocation of its own, as encoding/json makes them, because the feed
// keeps ops past the batch: its per-key maps hold keys for as long as they
// are live, and each shard's replication log (and, when recording, its trace)
// holds its sub-batch's ops. Those bound what they keep by the ops' own keys
// and values, so an op aliasing the body would keep the whole body with it,
// other shards' ops included.
func decodeOps(body []byte) ([]Op, error) {
	r := wire.NewReader(body)
	n := r.Int()
	if n > r.Len()/minOpWire {
		r.Fail("%d ops in %d bytes", n, r.Len())
		return nil, r.Err()
	}
	ops := make([]Op, n)
	for i := range ops {
		op := &ops[i]
		switch code := r.Byte(); code {
		case opRead, opWrite, opScan:
			op.Type = opTypes[code]
		case opOther:
			op.Type = r.OwnStr()
		default:
			r.Fail("op code %d", code)
		}
		op.Key = r.OwnStr()
		op.Value = bytes.Clone(r.Bytes(r.Int()))
		op.ScanLen = r.Int()
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return ops, nil
}

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

// binaryOpsBody reports whether a request's body is a binary batch.
func binaryOpsBody(r *http.Request) bool { return r.Header.Get("Content-Type") == OpsMediaType }

// decodeBatch decodes a POST /feeds/{id}/ops body in the form its
// Content-Type names, under the size cap (413 past it). Like decodeBody it
// reports whether decoding succeeded; the error answer is written when not.
func decodeBatch(w http.ResponseWriter, r *http.Request, maxBytes int64) ([]Op, bool) {
	if !binaryOpsBody(r) {
		var req BatchRequest
		ok := decodeBody(w, r, maxBytes, &req)
		return req.Ops, ok
	}
	body, err := readPooled(http.MaxBytesReader(w, r.Body, maxBytes))
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
	defer putBuf(body)
	ops, err := decodeOps(*body)
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
	if binaryOpsBody(r) {
		n, k := binary.Uvarint(body)
		if k <= 0 {
			return 0
		}
		return int(min(n, uint64(len(body)/minOpWire)))
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
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	*buf = appendResults(*buf, results)
	writeBinary(w, OpsMediaType, *buf)
}

package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"maps"
	"os"
	"path/filepath"
	"slices"
)

// Both files on disk are sequences of CRC-checked frames:
//
//	crc32(payload) (4B) | payload length (4B) | payload
//
// A wal.log frame is one write batch, its payload the batch's serialized
// entries (see codec.go). A torn final frame (crash mid-write) is detected
// by its length or CRC and dropped; everything before it replays cleanly.
//
// base is the checkpoint image: a header frame, then one frame per live
// entry in ascending key order.
//
//	header payload: "GRuBBASE" | seq (8B) | entry count (8B)
//
// seq is the store's sequence number when the image was taken; every
// wal.log entry at or below it is already in the image. base is written to
// base.tmp and renamed into place, so it is never torn: any damage to it
// fails Open.

const (
	walName, baseName, baseTmpName = "wal.log", "base", "base.tmp"

	frameHeaderLen = 8
	baseMagic      = "GRuBBASE"
	baseHeaderLen  = len(baseMagic) + 8 + 8
)

// openFrame appends a frame header to dst, to be filled in by sealFrame once
// the payload has been appended after it.
func openFrame(dst []byte) []byte { return append(dst, 0, 0, 0, 0, 0, 0, 0, 0) }

// sealFrame fills in the header of frame, whose payload is everything after
// the header.
func sealFrame(frame []byte) {
	p := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame, crc32.ChecksumIEEE(p))
	binary.LittleEndian.PutUint32(frame[4:], uint32(len(p)))
}

// nextFrame splits the first frame off data. ok is false when data does not
// start with an intact frame: a short header, a short payload or a CRC
// mismatch.
func nextFrame(data []byte) (payload, rest []byte, ok bool) {
	if len(data) < frameHeaderLen {
		return nil, data, false
	}
	n := binary.LittleEndian.Uint32(data[4:frameHeaderLen])
	if uint64(n) > uint64(len(data)-frameHeaderLen) {
		return nil, data, false
	}
	payload = data[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[:4]) {
		return nil, data, false
	}
	return payload, data[frameHeaderLen+int(n):], true
}

// entryFunc receives one decoded entry; its slices alias the file's bytes.
type entryFunc func(key []byte, seq uint64, kind entryKind, val []byte) error

// decodeEntries calls fn for every entry in a frame payload.
func decodeEntries(payload []byte, fn entryFunc) error {
	for len(payload) > 0 {
		key, seq, kind, val, n, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		if err := fn(key, seq, kind, val); err != nil {
			return err
		}
		payload = payload[n:]
	}
	return nil
}

// replayWAL calls apply for every entry of every intact frame of the log at
// path, in order, and returns the byte length of the intact prefix and of
// the file. Past the prefix lies a torn or corrupt tail, which the caller
// must truncate away before appending, or new frames would land after the
// damaged bytes and be unreachable on the next replay. An intact frame
// whose entries do not decode, or an error from apply, is corruption rather
// than a tear, and fails the replay.
func replayWAL(path string, apply entryFunc) (validLen, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return 0, 0, fmt.Errorf("kvstore: read wal: %w", err)
	}
	rest := data
	for len(rest) > 0 {
		payload, next, ok := nextFrame(rest)
		if !ok {
			break
		}
		if err := decodeEntries(payload, apply); err != nil {
			return 0, 0, fmt.Errorf("kvstore: wal: %w", err)
		}
		rest = next
	}
	return int64(len(data) - len(rest)), int64(len(data)), nil
}

// writeBase installs the live set as the checkpoint image at seq, in
// ascending key order: written to base.tmp, then renamed over base.
// With syncFile set, the file is synced before the rename and the directory
// after it, so the image is durable before the caller resets the WAL.
func writeBase(dir string, seq uint64, live map[string]version, syncFile bool) error {
	buf := append(openFrame(nil), baseMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(live)))
	sealFrame(buf)
	for _, key := range slices.Sorted(maps.Keys(live)) {
		start := len(buf)
		buf = appendEntry(openFrame(buf), key, live[key].seq, kindValue, live[key].val)
		sealFrame(buf[start:])
	}
	tmp := filepath.Join(dir, baseTmpName)
	f, err := os.Create(tmp)
	if err == nil {
		_, err = f.Write(buf)
		if err == nil && syncFile {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, baseName))
	}
	if err == nil && syncFile {
		if f, err = os.Open(dir); err == nil {
			err = f.Sync()
			f.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("kvstore: write base: %w", err)
	}
	return nil
}

// errCorruptBase wraps every way a checkpoint image can fail validation.
var errCorruptBase = errors.New("kvstore: corrupt base")

// loadBase validates the checkpoint image at path and loads copies of its
// entries into live, returning the image's seq (0 when there is none).
// Validation is strict: every frame intact, the header's magic and entry
// count right, keys strictly ascending, only live values, and no entry
// newer than the image. On an error the caller discards live.
func loadBase(path string, live map[string]version) (uint64, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("kvstore: read base: %w", err)
	}
	hdr, rest, ok := nextFrame(data)
	if !ok || len(hdr) != baseHeaderLen || string(hdr[:len(baseMagic)]) != baseMagic {
		return 0, fmt.Errorf("%w: bad header", errCorruptBase)
	}
	seq := binary.LittleEndian.Uint64(hdr[len(baseMagic):])
	count := binary.LittleEndian.Uint64(hdr[len(baseMagic)+8:])
	var n uint64
	var prev []byte
	check := func(key []byte, s uint64, kind entryKind, val []byte) error {
		switch {
		case kind != kindValue:
			return fmt.Errorf("tombstone for %q", key)
		case s > seq:
			return fmt.Errorf("entry seq %d above image seq %d", s, seq)
		case n > 0 && bytes.Compare(prev, key) >= 0:
			return fmt.Errorf("key %q out of order", key)
		}
		live[string(key)] = version{val: clone(val), seq: s}
		prev = key
		n++
		return nil
	}
	for len(rest) > 0 {
		var payload []byte
		if payload, rest, ok = nextFrame(rest); !ok {
			return 0, fmt.Errorf("%w: damaged frame at byte %d", errCorruptBase, len(data)-len(rest))
		}
		if err := decodeEntries(payload, check); err != nil {
			return 0, fmt.Errorf("%w: %v", errCorruptBase, err)
		}
	}
	if n != count {
		return 0, fmt.Errorf("%w: %d entries, header says %d", errCorruptBase, n, count)
	}
	return seq, nil
}

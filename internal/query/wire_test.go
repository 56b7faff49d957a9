package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"grub/internal/ads"
	"grub/internal/wire"
)

// wireEngine publishes n seeded records over the shards. The records cover
// every length class of the binary encoding: keys past 127 bytes (a two-byte
// uvarint), empty and 200-byte values, both state groups.
func wireEngine(seed uint64, shards, n int) (*Engine, []ads.Record) {
	rng := rand.New(rand.NewPCG(seed, 0))
	sets := make([]*ads.Set, shards)
	for i := range sets {
		sets[i] = ads.NewSet()
	}
	recs := make([]ads.Record, n)
	for i := range recs {
		rec := ads.Record{Key: fmt.Sprintf("user%07d", i), State: ads.NR, Value: make([]byte, 32)}
		for j := range rec.Value {
			rec.Value[j] = byte(rng.Uint32())
		}
		switch rng.IntN(10) {
		case 0:
			rec.Key += strings.Repeat("-long", 30)
		case 1:
			rec.Value = nil
		case 2:
			rec.Value = bytes.Repeat(rec.Value, 7)
		case 3:
			rec.State = ads.R
		}
		recs[i] = rec
		sets[ShardOf(rec.Key, shards)].Put(rec)
	}
	e := NewEngine(shards)
	for i, s := range sets {
		e.Publish(i, NewView(i, seed, 100+uint64(i), s.Clone()))
	}
	return e, recs
}

var bigEngine = sync.OnceValues(func() (*Engine, []ads.Record) { return wireEngine(50, 4, 50000) })

// viaJSON and viaBinary carry a value across each encoding and back.
func viaJSON[T any](t *testing.T, v T) T {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getViaBinary(t *testing.T, g *GetResult) (*GetResult, []byte) {
	t.Helper()
	body, err := g.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeGetResult(body)
	if err != nil {
		t.Fatal(err)
	}
	return out, body
}

func rangeViaBinary(t *testing.T, slices []RangeResult) ([]RangeResult, []byte) {
	t.Helper()
	body, err := AppendRangeResults(nil, slices)
	if err != nil {
		t.Fatal(err)
	}
	out, err := DecodeRangeResults(body)
	if err != nil {
		t.Fatal(err)
	}
	return out, body
}

// TestBinaryMatchesJSON is the differential round trip: whatever the engine
// answers, the binary encoding decodes to exactly the struct the JSON
// encoding decodes to, and that struct verifies.
func TestBinaryMatchesJSON(t *testing.T) {
	for _, n := range []int{0, 1, 1000, 50000} {
		e, recs := bigEngine()
		if n < 50000 {
			e, recs = wireEngine(uint64(n)+1, 4, n)
		}
		keys := []string{"", "absent", "user0000000x", "zzzz"}
		for i := 0; i < len(recs) && i < 40; i++ {
			rec := recs[(i*7919)%len(recs)]
			keys = append(keys, rec.Key, rec.Key+"x")
		}
		for _, key := range keys {
			res, err := e.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			bin, _ := getViaBinary(t, res)
			if !reflect.DeepEqual(bin, viaJSON(t, res)) {
				t.Fatalf("n=%d get %q: binary and JSON decode differently", n, key)
			}
			if err := VerifyGet(key, bin); err != nil {
				t.Fatalf("n=%d get %q: %v", n, key, err)
			}
		}
		windows := [][2]string{
			{"user0000010", "user0000017"}, // a few keys
			{"user0000400", "user0000100"}, // inverted
			{"zz", "zzz"},                  // past the end
			{"", "a"},                      // before the start
			{"user0000100", "user0000100"}, // one key
		}
		if n <= 1000 {
			windows = append(windows, [2]string{"", "zzzz"}) // everything
		}
		for _, w := range windows {
			slices, err := e.Range(w[0], w[1])
			if err != nil {
				t.Fatal(err)
			}
			bin, _ := rangeViaBinary(t, slices)
			if !reflect.DeepEqual(bin, viaJSON(t, slices)) {
				t.Fatalf("n=%d range %v: binary and JSON decode differently", n, w)
			}
			for i := range bin {
				if err := VerifyRange(w[0], w[1], &bin[i]); err != nil {
					t.Fatalf("n=%d range %v shard %d: %v", n, w, i, err)
				}
			}
		}
	}
}

// TestBinaryBodySizes pins what the encoding is for: on a 50k-record 4-shard
// feed a binary body is the evidence plus a small header, not a multiple of
// it.
func TestBinaryBodySizes(t *testing.T) {
	e, recs := bigEngine()
	for i := 0; i < 200; i++ {
		for _, key := range []string{recs[(i*7919)%len(recs)].Key, fmt.Sprintf("user%07dx", i*211)} {
			res, err := e.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			_, body := getViaBinary(t, res)
			if limit := res.ProofBytes()*11/10 + 128; len(body) > limit {
				t.Fatalf("get %q: %d-byte body for %d proof bytes (limit %d)", key, len(body), res.ProofBytes(), limit)
			}
		}
		lo := (i * 199) % (len(recs) - 8)
		slices, err := e.Range(recs[lo].Key[:11], recs[lo+7].Key[:11])
		if err != nil {
			t.Fatal(err)
		}
		proof := 0
		for j := range slices {
			proof += slices[j].ProofBytes()
		}
		_, body := rangeViaBinary(t, slices)
		if limit := proof * 11 / 10; len(body) > limit {
			t.Fatalf("range from %q: %d-byte body for %d proof bytes (limit %d)", recs[lo].Key, len(body), proof, limit)
		}
	}
}

// TestDecodeRejectsHostileBodies: envelope-level checks (the proof types'
// own are tested beside them).
func TestDecodeRejectsHostileBodies(t *testing.T) {
	e, recs := wireEngine(3, 2, 64)
	res, _ := e.Get(recs[5].Key)
	get, _ := res.AppendBinary(nil)
	slices, _ := e.Range("", "zzzz")
	rng, _ := AppendRangeResults(nil, slices)

	flagsAt := bytes.Index(get, []byte(recs[5].Key)) + len(recs[5].Key)
	badFlags := bytes.Clone(get)
	badFlags[flagsAt] |= 0x10
	for name, body := range map[string][]byte{
		"empty":         nil,
		"trailing byte": append(bytes.Clone(get), 0),
		"truncated":     get[:len(get)-1],
		"unknown flag":  badFlags,
	} {
		if _, err := DecodeGetResult(body); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("get, %s: %v, want ErrMalformed", name, err)
		}
	}
	for name, body := range map[string][]byte{
		"empty":            nil,
		"trailing byte":    append(bytes.Clone(rng), 0),
		"truncated":        rng[:len(rng)-1],
		"huge slice count": {0xff, 0xff, 0xff, 0xff, 0x07},
		"presence byte 2":  append(append([]byte{1, 0, 1, 0, 0}, make([]byte, 32)...), 0, 2),
	} {
		if _, err := DecodeRangeResults(body); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("range, %s: %v, want ErrMalformed", name, err)
		}
	}
	if _, err := (*GetResult)(nil).AppendBinary(nil); err == nil {
		t.Error("nil result encoded")
	}
}

// TestViewGetMatchesSetProofs pins View.Get's single descent to the set's own
// by-rank proofs: same root, same proof, same ProofBytes.
func TestViewGetMatchesSetProofs(t *testing.T) {
	set := ads.NewSet()
	_, recs := wireEngine(9, 1, 3000)
	for _, rec := range recs {
		set.Put(rec)
	}
	v := NewView(0, 1, 1, set.Clone())
	if v.Root() != set.Root() {
		t.Fatal("view root differs from the set's")
	}
	for rank, want := range set.Records() {
		res, err := v.Get(want.Key, 1)
		if err != nil {
			t.Fatal(err)
		}
		old, err := set.ProveIndex(rank)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found || !reflect.DeepEqual(*res.Record, want) || !reflect.DeepEqual(res.Proof, old) {
			t.Fatalf("Get(%q) differs from ProveIndex(%d)", want.Key, rank)
		}
		if got, want := res.ProofBytes(), old.Size()+want.Size(); got != want {
			t.Fatalf("Get(%q): ProofBytes %d, want %d", res.Key, got, want)
		}
		if err := VerifyGet(want.Key, res); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzReadWireDecode feeds arbitrary bytes to both body decoders. They must
// never panic or recurse past the proof-depth cap (a stack overflow is a
// crash the fuzzer reports), must not allocate more than a small multiple of
// the input — a few bytes cannot claim a large slice — and whatever they
// accept must survive its own re-encoding.
//
// Wired into `make fuzz-smoke`.
func FuzzReadWireDecode(f *testing.F) {
	e, recs := wireEngine(7, 2, 200)
	seed := func(body []byte, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
		f.Add(body[:len(body)-1])
	}
	for _, key := range []string{recs[3].Key, recs[4].Key + "x"} {
		res, err := e.Get(key)
		if err != nil {
			f.Fatal(err)
		}
		seed(res.AppendBinary(nil))
	}
	for _, w := range [][2]string{{"user0000010", "user0000030"}, {"b", "a"}} {
		slices, err := e.Range(w[0], w[1])
		if err != nil {
			f.Fatal(err)
		}
		seed(AppendRangeResults(nil, slices))
	}
	f.Add(bytes.Repeat([]byte{2, 3, 0, 1, 'k'}, 700)) // a 700-deep chain of expanded nodes
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, gerr := DecodeGetResult(body)
		rs, rerr := DecodeRangeResults(body)
		runtime.ReadMemStats(&after)
		// The two private copies plus, at worst, an 80-byte tree node per 4
		// input bytes, for each decoder; the constant absorbs the runtime's
		// own allocations between the two readings.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(body)+64<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(body), got, limit)
		}
		if gerr == nil {
			again, err := g.AppendBinary(nil)
			if err != nil {
				t.Fatalf("accepted get does not re-encode: %v", err)
			}
			if g2, err := DecodeGetResult(again); err != nil || !reflect.DeepEqual(g, g2) {
				t.Fatalf("accepted get changes across a re-encoding (%v)", err)
			}
		}
		if rerr == nil {
			again, err := AppendRangeResults(nil, rs)
			if err != nil {
				t.Fatalf("accepted range does not re-encode: %v", err)
			}
			if rs2, err := DecodeRangeResults(again); err != nil || !reflect.DeepEqual(rs, rs2) {
				t.Fatalf("accepted range changes across a re-encoding (%v)", err)
			}
		}
	})
}

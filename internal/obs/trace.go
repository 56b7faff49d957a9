package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// TraceHeader is the HTTP header that carries a trace ID across the
// wire. A client may supply its own ID; the gateway echoes it back and
// stamps it on every span the batch produces.
const TraceHeader = "X-Grub-Trace"

// maxSpanWire bounds the encoded span payload a forwarded batch's answer
// frame carries back (stream.Head.Spans).
const maxSpanWire = 8 << 10

// NewTraceID returns a fresh 16-hex-char random trace ID.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; keep a
		// deterministic fallback rather than panicking in a hot path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// SpanRecord is one completed stage of a traced batch. Node and Parent
// are set on cross-node traces: Node names the node that recorded the
// span, Parent references the hop span ("node:stage") it ran under.
type SpanRecord struct {
	Stage   string `json:"stage"`
	Shard   int    `json:"shard"` // -1 for gateway-level spans
	StartUS int64  `json:"startUs"`
	DurUS   int64  `json:"durUs"`
	Node    string `json:"node,omitempty"`
	Parent  string `json:"parent,omitempty"`
}

// Trace collects the per-stage spans of one batch as it moves through
// the pipeline. All methods are nil-safe so untraced requests pay only
// a nil check.
type Trace struct {
	id    string
	start time.Time

	mu     sync.Mutex
	node   string
	parent string
	spans  []SpanRecord
}

// NewTrace starts a trace. An empty id generates a random one.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewTraceID()
	}
	return &Trace{id: id, start: time.Now()}
}

// ID returns the trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Start returns the trace's start time.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// SetNode names the node recording this trace; subsequent spans are
// stamped with it. Safe to call once at trace creation.
func (t *Trace) SetNode(node string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.node = node
	t.mu.Unlock()
}

// Node returns the node name set via SetNode ("" on nil).
func (t *Trace) Node() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.node
}

// SetParent records the parent span reference ("node:stage") received
// on a forwarded request; subsequent local spans are stamped with it.
func (t *Trace) SetParent(parent string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.parent = parent
	t.mu.Unlock()
}

// AddSpan records a completed span for stage on shard (use shard -1 for
// gateway-level stages) that ran [start, start+dur).
func (t *Trace) AddSpan(stage string, shard int, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	rec := SpanRecord{
		Stage:   stage,
		Shard:   shard,
		StartUS: start.Sub(t.start).Microseconds(),
		DurUS:   dur.Microseconds(),
	}
	t.mu.Lock()
	rec.Node = t.node
	rec.Parent = t.parent
	t.spans = append(t.spans, rec)
	t.mu.Unlock()
}

// AddRemoteSpans merges spans recorded by another node into this trace,
// shifting their start times by offset (the local start of the hop that
// produced them) so the stitched timeline stays roughly aligned.
func (t *Trace) AddRemoteSpans(spans []SpanRecord, offset time.Duration) {
	if t == nil || len(spans) == 0 {
		return
	}
	off := offset.Microseconds()
	t.mu.Lock()
	for _, sp := range spans {
		sp.StartUS += off
		t.spans = append(t.spans, sp)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans ordered by start time,
// then stage name.
func (t *Trace) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]SpanRecord(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartUS != out[j].StartUS {
			return out[i].StartUS < out[j].StartUS
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}

type traceKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, t)
}

// TraceFrom extracts the trace from a context (nil if absent).
func TraceFrom(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// EncodeSpans renders spans as a single-line JSON array, the spans field
// of a forwarded batch's answer frame. The payload is bounded: spans are
// dropped from the tail until the encoding fits in 8KiB, so a pathological
// batch cannot inflate the answer. Returns "" for no spans.
func EncodeSpans(spans []SpanRecord) string {
	for len(spans) > 0 {
		b, err := json.Marshal(spans)
		if err != nil {
			return ""
		}
		if len(b) <= maxSpanWire {
			return string(b)
		}
		spans = spans[:len(spans)/2]
	}
	return ""
}

// DecodeSpans parses an EncodeSpans payload. A malformed payload yields
// an error rather than partial spans; callers treat that as "no remote
// breakdown" and keep the local trace intact.
func DecodeSpans(s string) ([]SpanRecord, error) {
	if s == "" {
		return nil, nil
	}
	var spans []SpanRecord
	if err := json.Unmarshal([]byte(s), &spans); err != nil {
		return nil, err
	}
	return spans, nil
}

package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Entry is one feed's placement decision: which node owns it (accepts its
// writes and leads its replication) and at which fencing epoch that was
// decided. Epochs totally order ownership changes per feed — every
// migration fence, migration flip and failover promotion bumps the epoch,
// and every forwarded write carries the sender's epoch so a node with a
// stale map can never slip a write past a newer decision.
type Entry struct {
	Feed  string `json:"feed"`
	Owner string `json:"owner"` // owner node URL
	Epoch uint64 `json:"epoch"`
	// Fenced marks a migration cutover in progress: the owner refuses
	// writes (503 + Retry-After) until ownership flips at Epoch+1.
	Fenced bool `json:"fenced,omitempty"`
	// Deleted tombstones the feed: non-owners stop tailing and drop their
	// replicas.
	Deleted bool `json:"deleted,omitempty"`
}

// supersedes reports whether a replaces b when both describe the same feed.
// Higher epoch always wins; at equal epochs the comparison is an arbitrary
// but total order (deleted > fenced > plain, then smaller owner URL), so
// concurrent equal-epoch proposals converge to the same winner on every
// node regardless of merge order.
func supersedes(a, b Entry) bool {
	if a.Epoch != b.Epoch {
		return a.Epoch > b.Epoch
	}
	if a.Deleted != b.Deleted {
		return a.Deleted
	}
	if a.Fenced != b.Fenced {
		return a.Fenced
	}
	return a.Owner < b.Owner
}

// Map is the replicated placement map: feed -> Entry, merged entry-wise by
// epoch. Every heartbeat exchanges full maps in both directions, so the
// cluster converges without a consensus round — the per-entry epochs make
// merging commutative, associative and idempotent.
type Map struct {
	mu      sync.Mutex
	entries map[string]Entry
	path    string // persisted copy, "" = memory only
}

// NewMap returns a placement map, loading the persisted copy from path when
// it is non-empty and exists (a node restarting with its data directory
// resumes from its last known placement instead of an empty map).
func NewMap(path string) (*Map, error) {
	m := &Map{entries: make(map[string]Entry), path: path}
	if path == "" {
		return m, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: read placement map: %w", err)
	}
	var list []Entry
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("cluster: parse placement map %s: %w", path, err)
	}
	for _, e := range list {
		if e.Feed != "" {
			m.entries[e.Feed] = e
		}
	}
	return m, nil
}

// Get returns a feed's entry.
func (m *Map) Get(feed string) (Entry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.entries[feed]
	return e, ok
}

// Entries returns every entry, sorted by feed.
func (m *Map) Entries() []Entry {
	m.mu.Lock()
	out := make([]Entry, 0, len(m.entries))
	for _, e := range m.entries {
		out = append(out, e)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Feed < out[j].Feed })
	return out
}

// Epoch returns the highest entry epoch — the placement epoch surfaced on
// /cluster/status and /metrics (any ownership change anywhere bumps it).
func (m *Map) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var max uint64
	for _, e := range m.entries {
		if e.Epoch > max {
			max = e.Epoch
		}
	}
	return max
}

// Merge folds one entry in, keeping whichever of the existing and proposed
// entries supersedes the other. It reports whether the map changed, and
// persists the new map when it did.
func (m *Map) Merge(e Entry) bool {
	if e.Feed == "" {
		return false
	}
	m.mu.Lock()
	cur, ok := m.entries[e.Feed]
	changed := !ok || (cur != e && supersedes(e, cur))
	if changed {
		m.entries[e.Feed] = e
	}
	var saveErr error
	if changed && m.path != "" {
		saveErr = m.saveLocked()
	}
	m.mu.Unlock()
	_ = saveErr // persistence is best-effort: the map re-converges from peers
	return changed
}

// MergeAll folds a peer's entries in, reporting whether anything changed.
func (m *Map) MergeAll(entries []Entry) bool {
	changed := false
	for _, e := range entries {
		if m.Merge(e) {
			changed = true
		}
	}
	return changed
}

// saveLocked writes the map to its state file (caller holds mu). Atomic
// rename so a crash mid-write leaves the previous copy intact.
func (m *Map) saveLocked() error {
	list := make([]Entry, 0, len(m.entries))
	for _, e := range m.entries {
		list = append(list, e)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Feed < list[j].Feed })
	data, err := json.MarshalIndent(list, "", "  ")
	if err != nil {
		return err
	}
	tmp := m.path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, m.path)
}

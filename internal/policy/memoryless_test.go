package policy

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"grub/internal/ads"
	"grub/internal/sim"
)

// twoMapMemoryless is Algorithm 1 as it was first written down here: a
// counter map and a state map, both assigned on every op. Memoryless keeps
// only the counter; this is the reference it must agree with.
type twoMapMemoryless struct {
	K      int
	count  map[string]int
	states map[string]ads.State
}

func newTwoMapMemoryless(k int) *twoMapMemoryless {
	return &twoMapMemoryless{K: k, count: map[string]int{}, states: map[string]ads.State{}}
}

func (m *twoMapMemoryless) Observe(op Op) ads.State {
	if op.Write {
		m.count[op.Key] = 0
		m.states[op.Key] = ads.NR
		return ads.NR
	}
	if m.count[op.Key] < m.K {
		m.count[op.Key]++
	}
	if m.count[op.Key] >= m.K {
		m.states[op.Key] = ads.R
	} else {
		m.states[op.Key] = ads.NR
	}
	return m.states[op.Key]
}

func (m *twoMapMemoryless) Target(key string) ads.State { return m.states[key] }

// snapshot is the blob the two-map policy persisted: counts (zeros for
// written keys included) and states.
func (m *twoMapMemoryless) snapshot(t *testing.T) []byte {
	t.Helper()
	data, err := json.Marshal(struct {
		Count  map[string]int       `json:"count,omitempty"`
		States map[string]ads.State `json:"states,omitempty"`
	}{m.count, m.states})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestMemorylessMatchesTwoMapReference drives both implementations with the
// same 10k-op random streams: every Observe answer and every key's Target
// must agree, and must keep agreeing after the single-map policy goes
// through its own snapshot or through a blob the two-map policy wrote.
func TestMemorylessMatchesTwoMapReference(t *testing.T) {
	const ops, keys = 10_000, 24
	for _, k := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			trace := randomTrace(uint64(k), ops, keys)
			ref, m := newTwoMapMemoryless(k), NewMemoryless(k)
			r := sim.NewRand(uint64(10 + k))
			for i, op := range trace {
				if got, want := m.Observe(op), ref.Observe(op); got != want {
					t.Fatalf("op %d %+v: Observe = %v, reference %v", i, op, got, want)
				}
				probe := trace[r.Intn(len(trace))].Key
				if got, want := m.Target(probe), ref.Target(probe); got != want {
					t.Fatalf("op %d: Target(%q) = %v, reference %v", i, probe, got, want)
				}
				switch {
				case i%1500 == 700:
					// Through the current format.
					blob, err := m.SnapshotState()
					if err != nil {
						t.Fatal(err)
					}
					if strings.Contains(string(blob), "states") {
						t.Fatalf("snapshot still carries states: %s", blob)
					}
					m = NewMemoryless(k)
					if err := m.RestoreState(blob); err != nil {
						t.Fatal(err)
					}
				case i%1500 == 1400:
					// Through a blob with states and zero counts.
					blob := ref.snapshot(t)
					if !strings.Contains(string(blob), `"states"`) || !strings.Contains(string(blob), `:0`) {
						t.Fatalf("reference blob lacks states or zero counts: %s", blob)
					}
					m = NewMemoryless(k)
					if err := m.RestoreState(blob); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, op := range trace[:keys*4] {
				if got, want := m.Target(op.Key), ref.Target(op.Key); got != want {
					t.Fatalf("final Target(%q) = %v, reference %v", op.Key, got, want)
				}
			}
		})
	}
}

// TestMemorylessWriteForgetsKey pins what the single map buys: a written key
// holds no policy state until it is read again.
func TestMemorylessWriteForgetsKey(t *testing.T) {
	m := NewMemoryless(2)
	for i := 0; i < 100; i++ {
		m.Observe(Write(fmt.Sprintf("k%d", i)))
	}
	m.Observe(Read("k0"))
	m.Observe(Read("k0"))
	m.Observe(Read("k1"))
	m.Observe(Write("k1"))
	if len(m.count) != 1 {
		t.Fatalf("policy holds state for %d keys, want 1 (k0)", len(m.count))
	}
	if m.Target("k0") != ads.R || m.Target("k1") != ads.NR || m.Target("never seen") != ads.NR {
		t.Fatal("targets wrong after forgetting written keys")
	}
}

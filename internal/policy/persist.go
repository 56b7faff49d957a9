package policy

import (
	"encoding/json"
	"fmt"

	"grub/internal/ads"
)

// Snapshotter is implemented by policies whose decisions depend on
// accumulated state. SnapshotState serializes that state; RestoreState
// installs it into a policy constructed with the same parameters, after
// which the policy makes exactly the decisions the original would have.
//
// The static baselines (Never, Always) are stateless and do not implement
// the interface; persistence layers treat a non-Snapshotter policy as having
// empty state.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// memorylessState is the serialized form of a Memoryless policy. Blobs
// written when the policy also stored each key's state carry a "states"
// object (and zero counts for written keys); both restore to the same
// decisions, since a state is a function of its count.
type memorylessState struct {
	Count map[string]int `json:"count,omitempty"`
}

// SnapshotState implements Snapshotter.
func (m *Memoryless) SnapshotState() ([]byte, error) {
	return json.Marshal(memorylessState{Count: m.count})
}

// RestoreState implements Snapshotter.
func (m *Memoryless) RestoreState(data []byte) error {
	var st memorylessState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore memoryless: %w", err)
	}
	m.count = st.Count
	if m.count == nil {
		m.count = make(map[string]int)
	}
	return nil
}

// memorizingState is the serialized form of a Memorizing policy.
type memorizingState struct {
	RCount map[string]float64   `json:"rCount,omitempty"`
	WCount map[string]float64   `json:"wCount,omitempty"`
	States map[string]ads.State `json:"states,omitempty"`
}

// SnapshotState implements Snapshotter.
func (m *Memorizing) SnapshotState() ([]byte, error) {
	return json.Marshal(memorizingState{RCount: m.rCount, WCount: m.wCount, States: m.states})
}

// RestoreState implements Snapshotter.
func (m *Memorizing) RestoreState(data []byte) error {
	var st memorizingState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore memorizing: %w", err)
	}
	m.rCount = st.RCount
	if m.rCount == nil {
		m.rCount = make(map[string]float64)
	}
	m.wCount = st.WCount
	if m.wCount == nil {
		m.wCount = make(map[string]float64)
	}
	m.states = st.States
	if m.states == nil {
		m.states = make(map[string]ads.State)
	}
	return nil
}

var (
	_ Snapshotter = (*Memoryless)(nil)
	_ Snapshotter = (*Memorizing)(nil)
)

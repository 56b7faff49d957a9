package policy

import (
	"fmt"

	"grub/internal/ads"
)

// Memorizing implements Algorithm 2 of the paper: it keeps cumulative read
// and write counters per key across runs, exploiting temporal locality that
// the memoryless algorithm forgets.
//
// Transitions (following the paper's §3.1 text):
//
//   - NR -> R when wCount*K' + D <= rCount; then wCount resets to 0 and
//     rCount is reduced to D.
//   - R -> NR when wCount*K' - D >= rCount; then rCount resets to 0 and
//     wCount is reduced to D/K'.
//
// D is the look-back window: small D flips state eagerly, large D keeps it
// stable. The algorithm is (4D+2)/K'-competitive (Theorem A.2).
type Memorizing struct {
	// K is the cost ratio K' = Cwrite/Cread_off.
	K int
	// D is the hysteresis window.
	D int

	rCount map[string]float64
	wCount map[string]float64
	states map[string]ads.State
}

// NewMemorizing returns a memorizing policy with the given K' and D
// (both >= 1).
func NewMemorizing(k, d int) *Memorizing {
	if k < 1 {
		k = 1
	}
	if d < 1 {
		d = 1
	}
	return &Memorizing{
		K:      k,
		D:      d,
		rCount: make(map[string]float64),
		wCount: make(map[string]float64),
		states: make(map[string]ads.State),
	}
}

// Name implements Policy.
func (m *Memorizing) Name() string { return fmt.Sprintf("memorizing(K=%d,D=%d)", m.K, m.D) }

// Observe implements Policy (Algorithm 2).
func (m *Memorizing) Observe(op Op) ads.State {
	k := op.Key
	if op.Write {
		m.wCount[k]++
	} else {
		m.rCount[k]++
	}
	kf, df := float64(m.K), float64(m.D)
	if m.wCount[k]*kf+df <= m.rCount[k] {
		m.states[k] = ads.R
		m.wCount[k] = 0
		m.rCount[k] = df
	} else if m.wCount[k]*kf-df >= m.rCount[k] {
		m.states[k] = ads.NR
		m.rCount[k] = 0
		m.wCount[k] = df / kf
	}
	return m.states[k]
}

// Target implements Policy.
func (m *Memorizing) Target(key string) ads.State { return m.states[key] }

// CompetitiveBound returns (4D+2)/K' per Theorem A.2, floored at 1 (a
// competitiveness below 1 is reported as 1: no algorithm beats the
// clairvoyant optimum).
func (m *Memorizing) CompetitiveBound() float64 {
	b := float64(4*m.D+2) / float64(m.K)
	if b < 1 {
		return 1
	}
	return b
}

var _ Policy = (*Memorizing)(nil)

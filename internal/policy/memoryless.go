package policy

import (
	"fmt"
	"math"

	"grub/internal/ads"
	"grub/internal/gas"
)

// Memoryless implements Algorithm 1 of the paper. Per key it counts the
// consecutive reads received since the last write; a write resets the counter
// and demotes the key to NR, and the K-th consecutive read promotes it to R.
//
// With K = Cupdate/Cread_off (Equation 1) the algorithm is 2-competitive in
// worst-case Gas (Theorem A.1); see CompetitiveBound.
type Memoryless struct {
	// K is the consecutive-read threshold.
	K int

	// count holds, for each key read since its last write, the consecutive
	// reads capped at K. The key's target is R exactly when the count has
	// reached K, so the count is the only per-key state.
	count map[string]int
}

// NewMemoryless returns a memoryless policy with threshold k (k >= 1).
func NewMemoryless(k int) *Memoryless {
	if k < 1 {
		k = 1
	}
	return &Memoryless{K: k, count: make(map[string]int)}
}

// NewMemorylessFromSchedule configures K by Equation 1 for the given gas
// schedule, rounding to the nearest integer (5000/2176 -> 2).
func NewMemorylessFromSchedule(s gas.Schedule) *Memoryless {
	return NewMemoryless(int(math.Round(s.ReplicationK())))
}

// Name implements Policy.
func (m *Memoryless) Name() string { return fmt.Sprintf("memoryless(K=%d)", m.K) }

// Observe implements Policy (Algorithm 1).
func (m *Memoryless) Observe(op Op) ads.State {
	if op.Write {
		delete(m.count, op.Key)
		return ads.NR
	}
	c := m.count[op.Key]
	if c < m.K {
		c++
		m.count[op.Key] = c
	}
	return m.stateAt(c)
}

// Target implements Policy.
func (m *Memoryless) Target(key string) ads.State { return m.stateAt(m.count[key]) }

func (m *Memoryless) stateAt(count int) ads.State {
	if count >= m.K {
		return ads.R
	}
	return ads.NR
}

// CompetitiveBound returns the worst-case competitiveness of this policy
// under the given schedule. Theorem A.1 derives 1 + K*Cread_off/Cupdate,
// which equals 2 for the real-valued K of Equation 1; with K rounded to an
// integer the adversarial ratio generalizes to
//
//	(K*Cread_off + Cupdate) / min(K*Cread_off, Cupdate)
//
// because the clairvoyant optimum picks whichever of "K off-chain reads" or
// "one replica write" is cheaper. For the default schedule and K=2 this is
// ~2.15.
func (m *Memoryless) CompetitiveBound(s gas.Schedule) float64 {
	cr := float64(m.K) * float64(s.TxPerWord)
	cu := float64(s.SStoreUpdate)
	den := cr
	if cu < den {
		den = cu
	}
	return (cr + cu) / den
}

var _ Policy = (*Memoryless)(nil)

//go:build race

package core

// raceEnabled reports a race-detector build. Under it sync.Pool drops items
// at random, so an operation that draws from one (an absence proof's
// scratch) allocates a varying amount.
const raceEnabled = true

//go:build race

package stream

// raceEnabled reports a race-detector build. Under it sync.Pool drops items
// at random, so a test that counts allocations has nothing stable to count.
const raceEnabled = true

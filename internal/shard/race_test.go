//go:build race

package shard

// raceEnabled reports a race-detector build. Under it sync.Pool drops items
// at random, so a batch that draws its reply channel from one allocates a
// varying amount.
const raceEnabled = true

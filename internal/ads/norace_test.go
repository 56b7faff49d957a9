//go:build !race

package ads

const raceEnabled = false

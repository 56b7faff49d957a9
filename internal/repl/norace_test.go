//go:build !race

package repl_test

const raceEnabled = false

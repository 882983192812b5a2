//go:build race

package search_test

// raceEnabled reports a -race build: the race detector makes sync.Pool drop
// Puts at random, so allocation guards cannot hold under it.
const raceEnabled = true

//go:build race

package livecluster

// raceEnabled reports a -race build: the race detector slows the host's
// search about tenfold, so a test of the host's own speed cannot hold.
const raceEnabled = true

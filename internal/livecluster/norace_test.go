//go:build !race

package livecluster

const raceEnabled = false

//go:build race

package server

// raceEnabled reports a -race build, where allocation counts do not hold.
const raceEnabled = true

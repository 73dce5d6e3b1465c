//go:build !race

package lab

// raceEnabled reports whether the race detector is instrumenting this
// build.
const raceEnabled = false

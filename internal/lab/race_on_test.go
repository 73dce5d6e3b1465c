//go:build race

package lab

// raceEnabled reports whether the race detector is instrumenting this
// build; it slows the shared ring's locking far more than plain copies,
// so wall-clock comparisons between the two are meaningless under it.
const raceEnabled = true

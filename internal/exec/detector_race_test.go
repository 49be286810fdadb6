//go:build race

package exec_test

// raceDetector reports a -race build: sync.Pool then drops some of what it
// is given, so a warm pool cannot be counted on.
const raceDetector = true

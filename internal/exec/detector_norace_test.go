//go:build !race

package exec_test

// raceDetector reports a -race build (see detector_race_test.go).
const raceDetector = false

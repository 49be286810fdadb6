//go:build !race

package interp

// raceDetector reports a -race build (see detector_race_test.go).
const raceDetector = false

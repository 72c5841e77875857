//go:build !race

package shm

// raceDetectorOn reports whether this test binary was built with the
// race detector (see race_on_test.go). The barrier differential test
// subsamples its rank counts under race, where the real barrier's
// goroutine hand-offs cost about ten times as much; the plain test run
// keeps full coverage.
const raceDetectorOn = false

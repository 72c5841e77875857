//go:build !race

package core

// raceDetectorOn reports whether this test binary was built with the
// race detector (see race_on_test.go). TestRDRowMatchesTable runs
// arithmetic on one goroutine, which the detector only slows down
// (about eight times), so under race it checks rank counts through 300;
// the plain test run keeps full coverage through 1100.
const raceDetectorOn = false

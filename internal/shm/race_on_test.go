//go:build race

package shm

// See race_off_test.go.
const raceDetectorOn = true

//go:build race

package measure

// See race_off_test.go.
const raceEnabled = true

//go:build !race

package measure

// raceEnabled reports whether the test binary was built with -race,
// which changes goroutine stack sizes (TestCoroutineStackInuse).
const raceEnabled = false

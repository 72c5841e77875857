//go:build !go1.23

package sim

// Processes run as iter.Pull coroutines (worker.go), which the standard
// library provides from Go 1.23 on. This file names the requirement in
// the compile error an older toolchain reports.
var _ = sim_requires_go1_23_or_later_for_iter_Pull

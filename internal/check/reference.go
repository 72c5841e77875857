package check

import (
	"camc/internal/core"
	"camc/internal/payload"
)

// BufSizes forwards to payload.BufSizes. It is kept because the
// host-time benchmark (perfbench/layers.go) calls it by this name.
func BufSizes(kind core.Kind, p int, count int64) (int64, int64, error) {
	return payload.BufSizes(kind, p, count)
}

// Reference forwards to payload.Reference. It is kept because the
// host-time benchmark (perfbench/layers.go) calls it by this name.
func Reference(kind core.Kind, p int, count int64, root int, sends [][]byte) ([][]byte, error) {
	return payload.Reference(kind, p, count, root, sends)
}

package mpi

import (
	"testing"

	"camc/internal/arch"
)

// TestNewAllocsLinearInRanks pins the cost of building a communicator
// to O(p): per-pair shm queues are created on first use, so New at
// power8's 160 ranks allocates a bounded number of objects per rank,
// far below the p² = 25,600 queues an eager transport would build.
func TestNewAllocsLinearInRanks(t *testing.T) {
	cfg := Config{Arch: arch.Power8()}
	p := cfg.withDefaults().Procs
	if p != 160 {
		t.Fatalf("power8 default procs = %d, want 160", p)
	}
	allocs := testing.AllocsPerRun(5, func() { New(cfg) })
	t.Logf("New at %d ranks: %.0f allocs (%.1f per rank)", p, allocs, allocs/float64(p))
	if limit := float64(4 * p); allocs > limit {
		t.Errorf("New at %d ranks allocates %.0f objects, want <= %.0f (4 per rank)", p, allocs, limit)
	}
}

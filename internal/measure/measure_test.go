package measure

import (
	"math"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
)

func TestSizesLadder(t *testing.T) {
	got := Sizes(1<<10, 8<<10)
	want := []int64{1 << 10, 2 << 10, 4 << 10, 8 << 10}
	if len(got) != len(want) {
		t.Fatalf("sizes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sizes[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Degenerate ladders come back empty instead of spinning forever
// (lo <= 0 can never double past hi) or returning a partial ramp.
func TestSizesDegenerate(t *testing.T) {
	cases := []struct{ lo, hi int64 }{
		{0, 1 << 20},       // lo = 0: s *= 2 would loop at zero
		{-4, 1 << 20},      // negative lo: doubling diverges away from hi
		{8 << 10, 4 << 10}, // empty range
		{1, 0},
	}
	for _, tc := range cases {
		if got := Sizes(tc.lo, tc.hi); got != nil {
			t.Errorf("Sizes(%d, %d) = %v, want nil", tc.lo, tc.hi, got)
		}
	}
	if got := Sizes(64, 64); len(got) != 1 || got[0] != 64 {
		t.Errorf("Sizes(64, 64) = %v, want [64]", got)
	}
	// A hi near MaxInt64 must stop the ladder, not overflow the next
	// doubling into a negative size that is still <= hi.
	if got := Sizes(1<<62, math.MaxInt64); len(got) != 1 || got[0] != 1<<62 {
		t.Errorf("Sizes(1<<62, MaxInt64) = %v, want [1<<62]", got)
	}
}

// maxOf is the timing-window reducer; an empty window (no ranks timed)
// is a zero-width window, not a panic.
func TestMaxOfEmpty(t *testing.T) {
	if got := maxOf(nil); got != 0 {
		t.Errorf("maxOf(nil) = %g, want 0", got)
	}
	if got := maxOf([]float64{-3, -1, -2}); got != -1 {
		t.Errorf("maxOf = %g, want -1", got)
	}
}

func TestItersAveragingIsStable(t *testing.T) {
	// Iterations are near-identical: the only variation is the residual
	// arrival skew ranks carry out of the separating barrier, worth well
	// under a percent. (It is not exactly zero — the same pipelining
	// effect real back-to-back benchmarks see.)
	a := arch.Broadwell()
	one := Collective(a, core.KindScatter, core.ScatterThrottled(4), 32<<10, Options{Procs: 12, Iters: 1})
	three := Collective(a, core.KindScatter, core.ScatterThrottled(4), 32<<10, Options{Procs: 12, Iters: 3})
	rel := (one - three) / one
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.02 {
		t.Fatalf("iters averaging drifted beyond 2%%: %g vs %g", one, three)
	}
}

func TestNonZeroRoot(t *testing.T) {
	a := arch.KNL()
	v := Collective(a, core.KindGather, core.GatherThrottled(4), 16<<10, Options{Procs: 10, Root: 7})
	if v <= 0 {
		t.Fatalf("latency %g", v)
	}
}

func TestSkewChangesOnlySkewedRuns(t *testing.T) {
	a := arch.KNL()
	base := Collective(a, core.KindBcast, core.BcastDirectRead, 64<<10, Options{Procs: 16})
	same := Collective(a, core.KindBcast, core.BcastDirectRead, 64<<10, Options{Procs: 16})
	skewed := Collective(a, core.KindBcast, core.BcastDirectRead, 64<<10, Options{Procs: 16, SkewSeed: 9, MaxSkew: 5000})
	if base != same {
		t.Fatalf("deterministic baseline drifted: %g vs %g", base, same)
	}
	if skewed == base {
		t.Fatal("skew had no effect on the contended design")
	}
}

func TestMechanismOptionRoutes(t *testing.T) {
	a := arch.KNL()
	cma := Collective(a, core.KindGather, core.GatherParallelWrite, 256<<10, Options{Procs: 16})
	xp := Collective(a, core.KindGather, core.GatherParallelWrite, 256<<10, Options{Procs: 16, Mechanism: kernel.MechXPMEM})
	if xp >= cma {
		t.Fatalf("xpmem naive gather %g not below cma %g", xp, cma)
	}
}

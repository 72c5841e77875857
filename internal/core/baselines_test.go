package core

import (
	"testing"

	"camc/internal/arch"
)

func TestBaselineScatterCorrect(t *testing.T) {
	for _, tr := range []Transport{TransportPt2pt, TransportShm} {
		for _, p := range testProcCounts {
			for _, root := range rootsFor(p) {
				f := newFixture(t, arch.KNL(), p, KindScatter, 4500)
				f.run(t, ScatterBinomial(tr), root)
				f.verifyScatter(t, root)
			}
		}
	}
}

func TestBaselineGatherCorrect(t *testing.T) {
	for _, tr := range []Transport{TransportPt2pt, TransportShm} {
		for _, p := range testProcCounts {
			for _, root := range rootsFor(p) {
				f := newFixture(t, arch.KNL(), p, KindGather, 4500)
				f.run(t, GatherBinomial(tr), root)
				f.verifyGather(t, root)
			}
		}
	}
}

func TestBaselineBcastCorrect(t *testing.T) {
	for _, tr := range []Transport{TransportPt2pt, TransportShm} {
		for _, p := range testProcCounts {
			for _, root := range rootsFor(p) {
				f := newFixture(t, arch.KNL(), p, KindBcast, 9000)
				f.run(t, BcastBinomial(tr), root)
				f.verifyBcast(t, root)

				f2 := newFixture(t, arch.KNL(), p, KindBcast, 9000)
				f2.run(t, BcastVanDeGeijn(tr), root)
				f2.verifyBcast(t, root)
			}
		}
	}
}

func TestBaselineAllgatherCorrect(t *testing.T) {
	for _, tr := range []Transport{TransportPt2pt, TransportShm} {
		for _, p := range testProcCounts {
			f := newFixture(t, arch.KNL(), p, KindAllgather, 3000)
			f.run(t, AllgatherRing(tr), 0)
			f.verifyAllgather(t)
		}
	}
}

func TestBaselineTinyCountVanDeGeijn(t *testing.T) {
	// Count < p: most chunks are empty; correctness must hold.
	for _, p := range []int{5, 8, 13} {
		f := newFixture(t, arch.KNL(), p, KindBcast, 3)
		f.run(t, BcastVanDeGeijn(TransportPt2pt), 1)
		f.verifyBcast(t, 1)
	}
}

func TestTunedCorrectAcrossSizesAndArchs(t *testing.T) {
	// The tuned selector switches algorithms at thresholds; verify
	// correctness on both sides of every switch point.
	sizes := []int64{512, 5000, 20000, 70000}
	for _, a := range arch.All() {
		for _, size := range sizes {
			p := 8
			fs := newFixture(t, a, p, KindScatter, size)
			fs.run(t, Tuned(KindScatter), 0)
			fs.verifyScatter(t, 0)

			fg := newFixture(t, a, p, KindGather, size)
			fg.run(t, Tuned(KindGather), 0)
			fg.verifyGather(t, 0)

			fb := newFixture(t, a, p, KindBcast, size)
			fb.run(t, Tuned(KindBcast), 0)
			fb.verifyBcast(t, 0)

			fa := newFixture(t, a, p, KindAllgather, size)
			fa.run(t, Tuned(KindAllgather), 0)
			fa.verifyAllgather(t)

			f2 := newFixture(t, a, p, KindAlltoall, size)
			f2.run(t, Tuned(KindAlltoall), 0)
			f2.verifyAlltoall(t)
		}
	}
}

func TestTunedThrottleValues(t *testing.T) {
	if k := TunedThrottle(arch.KNL()); k != 8 {
		t.Errorf("KNL throttle = %d, want 8", k)
	}
	if k := TunedThrottle(arch.Broadwell()); k != 4 {
		t.Errorf("Broadwell throttle = %d, want 4", k)
	}
	if k := TunedThrottle(arch.Power8()); k != 10 {
		t.Errorf("Power8 throttle = %d, want 10", k)
	}
}

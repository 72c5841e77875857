package model

import (
	"math"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/measure"
	"camc/internal/stats"
)

func TestEstimateRecoversTableIV(t *testing.T) {
	// The Table III procedure against the simulated kernel must recover
	// the profile's α, l and β within a small relative error.
	for _, a := range arch.All() {
		p := Estimate(a)
		if e := stats.RelErr(p.Alpha, a.Alpha); e > 0.02 {
			t.Errorf("%s: alpha-hat %g vs %g (err %.3f)", a.Name, p.Alpha, a.Alpha, e)
		}
		if e := stats.RelErr(p.L, a.LockPin); e > 0.02 {
			t.Errorf("%s: l-hat %g vs %g (err %.3f)", a.Name, p.L, a.LockPin, e)
		}
		if e := stats.RelErr(p.Beta, a.Beta()); e > 0.02 {
			t.Errorf("%s: beta-hat %g vs %g (err %.3f)", a.Name, p.Beta, a.Beta(), e)
		}
	}
}

func TestStepTimesOrdered(t *testing.T) {
	for _, a := range arch.All() {
		st := MeasureSteps(a, 100)
		if !(st.T1 < st.T2 && st.T2 < st.T3 && st.T3 < st.T4) {
			t.Errorf("%s: steps not ordered: %+v", a.Name, st)
		}
	}
}

func TestMeasuredGammaMatchesProfile(t *testing.T) {
	// γ measured through the kernel must reproduce the profile curve
	// (the kernel samples concurrency per chunk; with simultaneous
	// symmetric readers it sees the full concurrency).
	for _, a := range arch.All() {
		for _, c := range []int{1, 2, 4, 8} {
			got := MeasureGamma(a, 64, c).Gamma
			want := a.Gamma(c)
			if e := stats.RelErr(got, want); e > 0.15 {
				t.Errorf("%s c=%d: measured gamma %.2f vs profile %.2f", a.Name, c, got, want)
			}
		}
	}
}

func TestGammaIndependentOfPages(t *testing.T) {
	// Fig 5: γ depends on concurrency, not on how many pages are locked.
	a := arch.KNL()
	g10 := MeasureGamma(a, 10, 8).Gamma
	g100 := MeasureGamma(a, 100, 8).Gamma
	if e := stats.RelErr(g10, g100); e > 0.2 {
		t.Fatalf("gamma varies with pages: %g (10p) vs %g (100p)", g10, g100)
	}
}

func TestFitGammaRecoversCurve(t *testing.T) {
	for _, a := range arch.All() {
		concs := []int{2, 4, 8, 16}
		if a.DefaultProcs >= 32 {
			concs = append(concs, 24, 32)
		}
		if a.DefaultProcs >= 64 {
			concs = append(concs, 48, 63)
		}
		samples := MeasureGammaCurve(a, []int{10, 50, 100}, concs)
		p := Estimate(a)
		if _, err := p.FitGamma(samples); err != nil {
			t.Fatalf("%s: fit: %v", a.Name, err)
		}
		// The fitted curve must track the profile curve over the range.
		for _, c := range concs {
			if e := stats.RelErr(p.Gamma(c), a.Gamma(c)); e > 0.25 {
				t.Errorf("%s: fitted gamma(%d)=%.2f vs profile %.2f", a.Name, c, p.Gamma(c), a.Gamma(c))
			}
		}
	}
}

func TestSmCostsSane(t *testing.T) {
	sm := MeasureSm(arch.KNL(), 64)
	if sm.Bcast <= 0 || sm.Gather <= 0 || sm.Allgather <= 0 || sm.Barrier <= 0 {
		t.Fatalf("non-positive sm costs: %+v", sm)
	}
	// Collectives on 64 ranks with 8-byte payloads stay in the tens of
	// microseconds.
	if sm.Bcast > 100 || sm.Barrier > 100 {
		t.Fatalf("implausibly large sm costs: %+v", sm)
	}
	// Allgather includes a gather, so it cannot be cheaper.
	if sm.Allgather < sm.Gather {
		t.Fatalf("allgather %.2f < gather %.2f", sm.Allgather, sm.Gather)
	}
}

// validate compares a model prediction with a measured latency.
func validate(t *testing.T, name string, predicted, measured, tol float64) {
	t.Helper()
	if e := stats.RelErr(predicted, measured); e > tol {
		t.Errorf("%s: predicted %.1fus vs measured %.1fus (err %.1f%%, tol %.0f%%)",
			name, predicted, measured, e*100, tol*100)
	}
}

func TestModelValidationBcast(t *testing.T) {
	// Fig 12: predicted vs observed for Direct Read, Direct Write and
	// Scatter-Allgather broadcast on KNL and Broadwell.
	for _, a := range []*arch.Profile{arch.KNL(), arch.Broadwell()} {
		p := Estimate(a)
		pr := NewPredictor(p, a.DefaultProcs)
		for _, eta := range []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20} {
			mRead := measure.Collective(a, core.KindBcast, core.BcastDirectRead, eta, measure.Options{})
			validate(t, a.Name+"/direct-read", pr.BcastDirectRead(eta), mRead, 0.15)

			mWrite := measure.Collective(a, core.KindBcast, core.BcastDirectWrite, eta, measure.Options{})
			validate(t, a.Name+"/direct-write", pr.BcastDirectWrite(eta), mWrite, 0.15)

			// The closed form charges the scatter and ring phases
			// serially (as the paper's equation does); the
			// implementation pipelines the ring behind the scatter, so
			// below ~256 KiB — where per-chunk α and sync dominate —
			// the serial form overpredicts. Validate where the paper
			// does: the large-message regime CMA targets.
			if eta >= 256<<10 {
				mSA := measure.Collective(a, core.KindBcast, core.BcastScatterAllgather, eta, measure.Options{})
				validate(t, a.Name+"/scatter-allgather", pr.BcastScatterAllgather(eta), mSA, 0.30)
			}
		}
	}
}

func TestModelValidationScatterGather(t *testing.T) {
	a := arch.KNL()
	p := Estimate(a)
	pr := NewPredictor(p, a.DefaultProcs)
	for _, eta := range []int64{256 << 10, 1 << 20} {
		m := measure.Collective(a, core.KindScatter, core.ScatterSeqWrite, eta, measure.Options{})
		validate(t, "scatter/seq-write", pr.ScatterSeqWrite(eta), m, 0.15)

		m = measure.Collective(a, core.KindScatter, core.ScatterParallelRead, eta, measure.Options{})
		validate(t, "scatter/parallel-read", pr.ScatterParallelRead(eta), m, 0.25)

		m = measure.Collective(a, core.KindScatter, core.ScatterThrottled(8), eta, measure.Options{})
		validate(t, "scatter/throttled-8", pr.ScatterThrottled(eta, 8), m, 0.30)

		m = measure.Collective(a, core.KindGather, core.GatherThrottled(8), eta, measure.Options{})
		validate(t, "gather/throttled-8", pr.GatherThrottled(eta, 8), m, 0.30)
	}
}

func TestModelValidationAllgatherAlltoall(t *testing.T) {
	a := arch.KNL()
	p := Estimate(a)
	pr := NewPredictor(p, a.DefaultProcs)
	for _, eta := range []int64{64 << 10, 512 << 10} {
		m := measure.Collective(a, core.KindAllgather, core.AllgatherRingSourceRead, eta, measure.Options{})
		validate(t, "allgather/ring-source", pr.AllgatherRing(eta), m, 0.25)

		m = measure.Collective(a, core.KindAlltoall, core.AlltoallPairwiseColl, eta, measure.Options{})
		validate(t, "alltoall/pairwise", pr.AlltoallPairwise(eta), m, 0.25)
	}
}

func TestModelValidationKnomialAndParallelWrite(t *testing.T) {
	a := arch.KNL()
	p := Estimate(a)
	pr := NewPredictor(p, a.DefaultProcs)
	for _, eta := range []int64{256 << 10, 1 << 20} {
		m := measure.Collective(a, core.KindBcast, core.BcastKnomialRead(9), eta, measure.Options{})
		validate(t, "bcast/knomial-9", pr.BcastKnomial(eta, 9), m, 0.30)

		m = measure.Collective(a, core.KindGather, core.GatherParallelWrite, eta, measure.Options{})
		validate(t, "gather/parallel-write", pr.GatherParallelWrite(eta), m, 0.25)
	}
}

func TestPredictionMonotoneInSize(t *testing.T) {
	p := Estimate(arch.KNL())
	pr := NewPredictor(p, 64)
	fns := map[string]func(int64) float64{
		"scatter-par":  pr.ScatterParallelRead,
		"scatter-seq":  pr.ScatterSeqWrite,
		"bcast-dread":  pr.BcastDirectRead,
		"bcast-sa":     pr.BcastScatterAllgather,
		"allgather":    pr.AllgatherRing,
		"alltoall":     pr.AlltoallPairwise,
		"ag-bruck":     pr.AllgatherBruck,
		"ag-recdouble": pr.AllgatherRecursiveDoubling,
	}
	for name, f := range fns {
		prev := 0.0
		for eta := int64(1 << 10); eta <= 8<<20; eta <<= 1 {
			v := f(eta)
			if v <= prev {
				t.Errorf("%s: prediction not increasing at %d: %g <= %g", name, eta, v, prev)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: bad prediction %g", name, v)
			}
			prev = v
		}
	}
}

func TestThrottledPredictionSweetSpot(t *testing.T) {
	// The model itself must predict an interior throttle sweet spot on
	// KNL for large messages (the basis of the paper's design).
	p := Estimate(arch.KNL())
	pr := NewPredictor(p, 64)
	eta := int64(1 << 20)
	t1 := pr.ScatterThrottled(eta, 1)
	t8 := pr.ScatterThrottled(eta, 8)
	t63 := pr.ScatterThrottled(eta, 63)
	if !(t8 < t1 && t8 < t63) {
		t.Fatalf("no sweet spot: k=1 %.0f, k=8 %.0f, k=63 %.0f", t1, t8, t63)
	}
}

func TestModelValidationReduce(t *testing.T) {
	a := arch.KNL()
	p := Estimate(a)
	pr := NewPredictor(p, a.DefaultProcs)
	for _, eta := range []int64{256 << 10, 1 << 20} {
		m := measure.Collective(a, core.KindReduce, core.ReduceFlat, eta, measure.Options{})
		validate(t, "reduce/flat", pr.ReduceFlat(eta), m, 0.25)

		m = measure.Collective(a, core.KindReduce, core.ReduceParallelWrite, eta, measure.Options{})
		validate(t, "reduce/parallel-write", pr.ReduceParallelWrite(eta), m, 0.30)

		m = measure.Collective(a, core.KindReduce, core.ReduceKnomial(2), eta, measure.Options{})
		validate(t, "reduce/knomial-2", pr.ReduceKnomial(eta, 2), m, 0.30)

		m = measure.Collective(a, core.KindReduce, core.ReduceKnomial(9), eta, measure.Options{})
		validate(t, "reduce/knomial-9", pr.ReduceKnomial(eta, 9), m, 0.30)
	}
}

func TestReducePredictorPrefersDeepTrees(t *testing.T) {
	p := Estimate(arch.KNL())
	pr := NewPredictor(p, 64)
	eta := int64(1 << 20)
	if pr.ReduceKnomial(eta, 2) >= pr.ReduceKnomial(eta, 9) {
		t.Fatalf("model should prefer deep reduce trees: k=2 %.0f vs k=9 %.0f",
			pr.ReduceKnomial(eta, 2), pr.ReduceKnomial(eta, 9))
	}
}

func TestModelValidationAcrossArchitectures(t *testing.T) {
	// The closed forms must hold on all three machines, not only KNL:
	// page sizes (64K on Power8), socket mixes and γ curves all differ.
	for _, a := range arch.All() {
		p := Estimate(a)
		pr := NewPredictor(p, a.DefaultProcs)
		k := 8
		if a.Name == "power8" {
			k = 10
		} else if a.Name == "broadwell" {
			k = 4
		}
		for _, eta := range []int64{256 << 10, 1 << 20} {
			m := measure.Collective(a, core.KindScatter, core.ScatterThrottled(k), eta, measure.Options{})
			validate(t, a.Name+"/scatter-throttled", pr.ScatterThrottled(eta, k), m, 0.30)

			m = measure.Collective(a, core.KindScatter, core.ScatterSeqWrite, eta, measure.Options{})
			validate(t, a.Name+"/scatter-seq-write", pr.ScatterSeqWrite(eta), m, 0.20)
		}
	}
}

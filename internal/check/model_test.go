package check

import (
	"math"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/model"
)

// TestPredictForSpecs pins predictFor's spec resolution: every family
// with a closed form, under its canonical name, its aliases and its
// default parameter, predicts the form it names; families without one
// and malformed specs predict nothing.
func TestPredictForSpecs(t *testing.T) {
	a, procs, count := arch.KNL(), 8, int64(64<<10)
	pr := predictorFor(a, procs)
	cases := []struct {
		kind core.Kind
		spec string
		want func(*model.Predictor) float64 // nil = no prediction
	}{
		{core.KindScatter, "parallel-read", func(p *model.Predictor) float64 { return p.ScatterParallelRead(count) }},
		{core.KindScatter, "sequential-write", func(p *model.Predictor) float64 { return p.ScatterSeqWrite(count) }},
		{core.KindScatter, "throttled", func(p *model.Predictor) float64 { return p.ScatterThrottled(count, 4) }},
		{core.KindScatter, "throttled:3", func(p *model.Predictor) float64 { return p.ScatterThrottled(count, 3) }},
		{core.KindScatter, "throttle:5", func(p *model.Predictor) float64 { return p.ScatterThrottled(count, 5) }},
		{core.KindScatter, "binomial-shm", nil},
		{core.KindScatter, "tuned", nil},
		{core.KindGather, "parallel-write", func(p *model.Predictor) float64 { return p.GatherParallelWrite(count) }},
		{core.KindGather, "sequential-read", func(p *model.Predictor) float64 { return p.GatherSeqRead(count) }},
		{core.KindGather, "throttle", func(p *model.Predictor) float64 { return p.GatherThrottled(count, 4) }},
		{core.KindGather, "throttled:6", func(p *model.Predictor) float64 { return p.GatherThrottled(count, 6) }},
		{core.KindGather, "binomial-pt2pt", nil},
		{core.KindAlltoall, "pairwise-cma-coll", func(p *model.Predictor) float64 { return p.AlltoallPairwise(count) }},
		{core.KindAlltoall, "pairwise", func(p *model.Predictor) float64 { return p.AlltoallPairwise(count) }},
		{core.KindAlltoall, "bruck", nil},
		{core.KindAllgather, "ring-source-read", func(p *model.Predictor) float64 { return p.AllgatherRing(count) }},
		{core.KindAllgather, "ring-source-write", func(p *model.Predictor) float64 { return p.AllgatherRing(count) }},
		{core.KindAllgather, "recursive-doubling", func(p *model.Predictor) float64 { return p.AllgatherRecursiveDoubling(count) }},
		{core.KindAllgather, "bruck", func(p *model.Predictor) float64 { return p.AllgatherBruck(count) }},
		{core.KindAllgather, "ring-neighbor:1", nil},
		{core.KindBcast, "direct-read", func(p *model.Predictor) float64 { return p.BcastDirectRead(count) }},
		{core.KindBcast, "direct-write", func(p *model.Predictor) float64 { return p.BcastDirectWrite(count) }},
		{core.KindBcast, "knomial-read", func(p *model.Predictor) float64 { return p.BcastKnomial(count, 4) }},
		{core.KindBcast, "knomial-write:9", func(p *model.Predictor) float64 { return p.BcastKnomial(count, 9) }},
		{core.KindBcast, "scatter-allgather", func(p *model.Predictor) float64 { return p.BcastScatterAllgather(count) }},
		{core.KindBcast, "vandegeijn-pt2pt", nil},
		{core.KindReduce, "flat-sequential", func(p *model.Predictor) float64 { return p.ReduceFlat(count) }},
		{core.KindReduce, "parallel-write", func(p *model.Predictor) float64 { return p.ReduceParallelWrite(count) }},
		{core.KindReduce, "knomial", func(p *model.Predictor) float64 { return p.ReduceKnomial(count, 2) }},
		{core.KindReduce, "knomial:3", func(p *model.Predictor) float64 { return p.ReduceKnomial(count, 3) }},
		{core.KindReduce, "binomial-shm", nil},
		{core.KindScatter, "throttled:x", nil},
		{core.KindScatter, "nope", nil},
	}
	for _, tc := range cases {
		got, ok := predictFor(a, procs, tc.kind, tc.spec, count)
		if tc.want == nil {
			if ok {
				t.Errorf("%s %s: predicted %g, want no form", tc.kind, tc.spec, got)
			}
			continue
		}
		if want := tc.want(pr); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s %s: predicted %g (ok=%v), want %g", tc.kind, tc.spec, got, ok, want)
		}
	}
	if _, ok := predictFor(a, procs, core.KindScatter, "throttled:4", predictMinCount-1); ok {
		t.Error("predicted below predictMinCount")
	}
	if _, ok := predictFor(a, 6, core.KindAllgather, "recursive-doubling", count); ok {
		t.Error("predicted recursive doubling on a non-power-of-two communicator")
	}
}

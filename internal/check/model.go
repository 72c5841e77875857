package check

import (
	"strconv"
	"sync"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/model"
)

// predictors caches one fitted Predictor per (arch, procs): Estimate
// and MeasureSm run small calibration simulations, which would dominate
// the fuzzer's runtime if repeated per spec.
var (
	predMu     sync.Mutex
	predictors = map[string]*model.Predictor{}
)

func predictorFor(a *arch.Profile, procs int) *model.Predictor {
	key := a.Name + "/" + strconv.Itoa(procs)
	predMu.Lock()
	defer predMu.Unlock()
	if pr, ok := predictors[key]; ok {
		return pr
	}
	pr := model.NewPredictor(model.Estimate(a), procs)
	predictors[key] = pr
	return pr
}

// predictMinCount is the smallest per-rank size the closed forms are
// held to: the models target the kernel-assisted regime, and below a
// few pages the constant terms the forms fold away dominate.
const predictMinCount = 16 << 10

// predictFor evaluates the closed-form latency for an algorithm spec,
// returning ok=false when no form applies (tuned and pt2pt/shm baseline
// families have none, and recursive doubling's form assumes a power-of-
// two communicator).
func predictFor(a *arch.Profile, procs int, kind core.Kind, spec string, count int64) (float64, bool) {
	if count < predictMinCount {
		return 0, false
	}
	name, k, err := core.ResolveSpec(kind, spec)
	if err != nil {
		return 0, false
	}
	pr := func() *model.Predictor { return predictorFor(a, procs) }
	switch kind {
	case core.KindScatter:
		switch name {
		case "parallel-read":
			return pr().ScatterParallelRead(count), true
		case "sequential-write":
			return pr().ScatterSeqWrite(count), true
		case "throttled":
			return pr().ScatterThrottled(count, k), true
		}
	case core.KindGather:
		switch name {
		case "parallel-write":
			return pr().GatherParallelWrite(count), true
		case "sequential-read":
			return pr().GatherSeqRead(count), true
		case "throttled":
			return pr().GatherThrottled(count, k), true
		}
	case core.KindAlltoall:
		if name == "pairwise-cma-coll" {
			return pr().AlltoallPairwise(count), true
		}
	case core.KindAllgather:
		switch name {
		case "ring-source-read", "ring-source-write":
			return pr().AllgatherRing(count), true
		case "recursive-doubling":
			if procs&(procs-1) == 0 {
				return pr().AllgatherRecursiveDoubling(count), true
			}
		case "bruck":
			return pr().AllgatherBruck(count), true
		}
	case core.KindBcast:
		switch name {
		case "direct-read":
			return pr().BcastDirectRead(count), true
		case "direct-write":
			return pr().BcastDirectWrite(count), true
		case "knomial-read", "knomial-write":
			return pr().BcastKnomial(count, k), true
		case "scatter-allgather":
			return pr().BcastScatterAllgather(count), true
		}
	case core.KindReduce:
		switch name {
		case "flat-sequential":
			return pr().ReduceFlat(count), true
		case "parallel-write":
			return pr().ReduceParallelWrite(count), true
		case "knomial":
			return pr().ReduceKnomial(count, k), true
		}
	}
	return 0, false
}

package core

import (
	"fmt"
	"strconv"
	"strings"

	"camc/internal/mpi"
)

// This file is the single source of truth for the algorithm-spec
// grammar. A spec is "name" or "name:param"; the table below registers
// every family once with its aliases, its default parameter (0 for a
// parameter-free family) and the clamp rule Replan applies when the
// communicator shrinks. LookupAlgorithm and Replan both resolve specs
// through this table, so the two can never disagree on a spelling —
// any spec that survives tuning is guaranteed to replan.

// SpecInfo describes one registered algorithm family of the shared
// spec grammar.
type SpecInfo struct {
	// Name is the canonical family name.
	Name string
	// Aliases are accepted alternative spellings (e.g. "throttle" for
	// "throttled", "pairwise" for "pairwise-cma-coll").
	Aliases []string
	// Default is the parameter used when the spec omits ":k"; 0 means
	// the family takes no parameter and a ":k" suffix is rejected.
	Default int
}

// specEntry is the full registration: the public description plus the
// constructor and the Replan clamp rule.
type specEntry struct {
	SpecInfo
	// clamp bounds the parameter for a p-rank communicator; nil means
	// the family replans unchanged (parameter-free, or parameter valid
	// at any p).
	clamp func(k, p int) int
	// build constructs the implementation; param is ignored by
	// parameter-free families.
	build func(param int) func(*mpi.Rank, Args)
}

// fixed adapts a parameter-free implementation to the build signature.
func fixed(run func(*mpi.Rank, Args)) func(int) func(*mpi.Rank, Args) {
	return func(int) func(*mpi.Rank, Args) { return run }
}

// tunedBuild adapts Tuned to the build signature. It defers the Tuned
// call to build time: Tuned's closures are made in init, after this
// table is initialized.
func tunedBuild(kind Kind) func(int) func(*mpi.Rank, Args) {
	return func(int) func(*mpi.Rank, Args) { return Tuned(kind) }
}

// specKindOrder fixes the kind iteration order for SpecKinds.
var specKindOrder = []Kind{KindScatter, KindGather, KindAlltoall, KindAllgather, KindBcast, KindReduce}

var specTable = map[Kind][]specEntry{
	KindScatter: {
		{SpecInfo{Name: "parallel-read"}, nil, fixed(ScatterParallelRead)},
		{SpecInfo{Name: "sequential-write"}, nil, fixed(ScatterSeqWrite)},
		{SpecInfo{Name: "throttled", Aliases: []string{"throttle"}, Default: 4}, clampThrottle,
			func(k int) func(*mpi.Rank, Args) { return ScatterThrottled(k) }},
		{SpecInfo{Name: "binomial-shm"}, nil, fixed(ScatterBinomial(TransportShm))},
		{SpecInfo{Name: "binomial-pt2pt"}, nil, fixed(ScatterBinomial(TransportPt2pt))},
		{SpecInfo{Name: "tuned"}, nil, tunedBuild(KindScatter)},
	},
	KindGather: {
		{SpecInfo{Name: "parallel-write"}, nil, fixed(GatherParallelWrite)},
		{SpecInfo{Name: "sequential-read"}, nil, fixed(GatherSeqRead)},
		{SpecInfo{Name: "throttled", Aliases: []string{"throttle"}, Default: 4}, clampThrottle,
			func(k int) func(*mpi.Rank, Args) { return GatherThrottled(k) }},
		{SpecInfo{Name: "binomial-shm"}, nil, fixed(GatherBinomial(TransportShm))},
		{SpecInfo{Name: "binomial-pt2pt"}, nil, fixed(GatherBinomial(TransportPt2pt))},
		{SpecInfo{Name: "tuned"}, nil, tunedBuild(KindGather)},
	},
	KindBcast: {
		{SpecInfo{Name: "direct-read"}, nil, fixed(BcastDirectRead)},
		{SpecInfo{Name: "direct-write"}, nil, fixed(BcastDirectWrite)},
		{SpecInfo{Name: "scatter-allgather"}, nil, fixed(BcastScatterAllgather)},
		{SpecInfo{Name: "knomial-read", Default: 4}, clampRadix,
			func(k int) func(*mpi.Rank, Args) { return BcastKnomialRead(k) }},
		{SpecInfo{Name: "knomial-write", Default: 4}, clampRadix,
			func(k int) func(*mpi.Rank, Args) { return BcastKnomialWrite(k) }},
		{SpecInfo{Name: "binomial-shm"}, nil, fixed(BcastBinomial(TransportShm))},
		{SpecInfo{Name: "vandegeijn-pt2pt"}, nil, fixed(BcastVanDeGeijn(TransportPt2pt))},
		{SpecInfo{Name: "tuned"}, nil, tunedBuild(KindBcast)},
	},
	KindAllgather: {
		{SpecInfo{Name: "ring-source-read"}, nil, fixed(AllgatherRingSourceRead)},
		{SpecInfo{Name: "ring-source-write"}, nil, fixed(AllgatherRingSourceWrite)},
		{SpecInfo{Name: "ring-neighbor", Default: 1}, clampStride,
			func(j int) func(*mpi.Rank, Args) { return AllgatherRingNeighbor(j) }},
		{SpecInfo{Name: "recursive-doubling"}, nil, fixed(AllgatherRecursiveDoubling)},
		{SpecInfo{Name: "bruck"}, nil, fixed(AllgatherBruck)},
		{SpecInfo{Name: "ring-pt2pt"}, nil, fixed(AllgatherRing(TransportPt2pt))},
		{SpecInfo{Name: "ring-shm"}, nil, fixed(AllgatherRing(TransportShm))},
		{SpecInfo{Name: "tuned"}, nil, tunedBuild(KindAllgather)},
	},
	KindAlltoall: {
		{SpecInfo{Name: "pairwise-cma-coll", Aliases: []string{"pairwise"}}, nil, fixed(AlltoallPairwiseColl)},
		{SpecInfo{Name: "pairwise-cma-pt2pt"}, nil, fixed(AlltoallPairwisePt2pt)},
		{SpecInfo{Name: "pairwise-shmem"}, nil, fixed(AlltoallPairwiseShm)},
		{SpecInfo{Name: "bruck"}, nil, fixed(AlltoallBruck)},
		{SpecInfo{Name: "tuned"}, nil, tunedBuild(KindAlltoall)},
	},
	KindReduce: {
		{SpecInfo{Name: "flat-sequential"}, nil, fixed(ReduceFlat)},
		{SpecInfo{Name: "parallel-write"}, nil, fixed(ReduceParallelWrite)},
		{SpecInfo{Name: "knomial", Default: 2}, clampRadix,
			func(k int) func(*mpi.Rank, Args) { return ReduceKnomial(k) }},
		{SpecInfo{Name: "binomial-shm"}, nil, fixed(ReduceBinomialPt2pt(TransportShm))},
		{SpecInfo{Name: "binomial-pt2pt"}, nil, fixed(ReduceBinomialPt2pt(TransportPt2pt))},
		{SpecInfo{Name: "tuned"}, nil, tunedBuild(KindReduce)},
	},
}

// SpecKinds returns the collective kinds with registered spec grammars,
// in a fixed order.
func SpecKinds() []Kind {
	return append([]Kind(nil), specKindOrder...)
}

// Specs returns the registered algorithm families for a kind in
// registration order (nil for a kind without a grammar).
func Specs(kind Kind) []SpecInfo {
	entries := specTable[kind]
	out := make([]SpecInfo, len(entries))
	for i, e := range entries {
		out[i] = e.SpecInfo
	}
	return out
}

// parseSpec splits "name[:param]" and validates the parameter syntax.
// has reports whether an explicit parameter was given.
func parseSpec(spec string) (name string, param int, has bool, err error) {
	name = spec
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name = spec[:i]
		v, aerr := strconv.Atoi(spec[i+1:])
		if aerr != nil || v < 1 {
			return "", 0, false, fmt.Errorf("core: bad parameter in algorithm spec %q", spec)
		}
		param, has = v, true
	}
	return name, param, has, nil
}

// findSpec resolves a family name (or alias) for a kind.
func findSpec(kind Kind, name string) (*specEntry, error) {
	entries := specTable[kind]
	for i := range entries {
		e := &entries[i]
		if e.Name == name {
			return e, nil
		}
		for _, a := range e.Aliases {
			if a == name {
				return e, nil
			}
		}
	}
	return nil, fmt.Errorf("core: unknown %s algorithm %q", kind, name)
}

// ResolveSpec resolves an algorithm spec for a kind to its canonical
// family name and the parameter after defaults (0 for a parameter-free
// family), through the same grammar LookupAlgorithm and Replan use.
func ResolveSpec(kind Kind, spec string) (family string, param int, err error) {
	e, k, err := resolveSpec(kind, spec)
	if err != nil {
		return "", 0, err
	}
	return e.Name, k, nil
}

// resolveSpec is the shared front half of LookupAlgorithm and Replan:
// parse, resolve the family, reject a parameter on a parameter-free
// family, and apply the default.
func resolveSpec(kind Kind, spec string) (*specEntry, int, error) {
	name, param, has, err := parseSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	e, err := findSpec(kind, name)
	if err != nil {
		return nil, 0, err
	}
	if has && e.Default == 0 {
		return nil, 0, fmt.Errorf("core: %s algorithm %q takes no parameter (got %q)", kind, e.Name, spec)
	}
	k := e.Default
	if has {
		k = param
	}
	return e, k, nil
}

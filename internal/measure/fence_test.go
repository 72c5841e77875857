package measure

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/mpi"
)

// TestClosedFormFenceMatchesRealFence is the plain path's differential
// test: Collective costs its first entry barrier and every Allgather64
// address exchange in closed form and skips its last exit barrier,
// CollectiveTraced runs the real barriers and exchanges, and the two
// latencies must agree bit for bit for every kind and registered
// algorithm at 1, 2, 3, 8 and the default rank count. A wrong wake
// order after a closed form shifts same-instant contention and changes
// these bits, so the test pins the order too.
// Every cell up to 8 ranks, and every hand-picked row below (skewed,
// multi-iteration and faulted ones included), also runs
// CollectiveChecked, whose payload-carrying run times through the same
// window, so its verified latency must equal Collective's as well. The
// default-rank-count cells skip it: materialized payloads at 160 ranks
// cost seconds per cell and exercise no other path.
func TestClosedFormFenceMatchesRealFence(t *testing.T) {
	archs := arch.All()
	cell := 0
	for _, kind := range core.SpecKinds() {
		for _, info := range core.Specs(kind) {
			al, err := core.LookupAlgorithm(kind, info.Name)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, info.Name, err)
			}
			for _, procs := range []int{1, 2, 3, 8, 0} {
				a := archs[cell%len(archs)]
				cell++
				p := procs
				if p == 0 {
					p = a.DefaultProcs
				}
				opts := Options{Procs: procs, Root: p / 2}
				name := fmt.Sprintf("%s/%s/%s/p%d", kind, info.Name, a.Name, p)
				checkFence(t, name, a, kind, al.Run, 32<<10, opts, procs != 0)
			}
		}
	}
	// Every family that exchanges addresses through Allgather64, at the
	// default rank count under the node workload's ambient pressures:
	// Collective costs the exchange in closed form, CollectiveTraced
	// exchanges its messages, and same-instant lock traffic right after
	// the exchange's tied exits is where a wrong wake order would show.
	for _, f := range []struct {
		kind core.Kind
		spec string
	}{
		{core.KindBcast, "scatter-allgather"}, {core.KindBcast, "knomial-read"}, {core.KindBcast, "knomial-write"},
		{core.KindAllgather, "ring-source-read"}, {core.KindAllgather, "ring-source-write"},
		{core.KindAllgather, "ring-neighbor"}, {core.KindAllgather, "recursive-doubling"},
		{core.KindAllgather, "bruck"}, {core.KindAlltoall, "pairwise-cma-coll"}, {core.KindReduce, "knomial"},
	} {
		al, err := core.LookupAlgorithm(f.kind, f.spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", f.kind, f.spec, err)
		}
		for _, ambient := range []int{8, 32} {
			a := archs[cell%len(archs)]
			cell++
			name := fmt.Sprintf("%s/%s/%s/ambient%d", f.kind, f.spec, a.Name, ambient)
			checkFence(t, name, a, f.kind, al.Run, 32<<10, Options{Ambient: ambient, Root: a.DefaultProcs / 2}, false)
		}
	}
	al, err := core.LookupAlgorithm(core.KindScatter, "throttled:4")
	if err != nil {
		t.Fatal(err)
	}
	checkFence(t, "scatter/throttled:4/iters3", arch.KNL(), core.KindScatter, al.Run, 64<<10, Options{Iters: 3, Root: 5}, true)
	al, err = core.LookupAlgorithm(core.KindBcast, "knomial-read:8")
	if err != nil {
		t.Fatal(err)
	}
	checkFence(t, "bcast/knomial-read:8/skew", arch.Broadwell(), core.KindBcast, al.Run, 256<<10,
		Options{Iters: 2, SkewSeed: 7, MaxSkew: 40}, true)
	al, err = core.LookupAlgorithm(core.KindGather, "throttled:2")
	if err != nil {
		t.Fatal(err)
	}
	checkFence(t, "gather/throttled:2/skew", arch.KNL(), core.KindGather, al.Run, 48<<10,
		Options{Procs: 8, Root: 3, SkewSeed: 11, MaxSkew: 25}, true)
	cfg, err := fault.Preset("moderate")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 5
	al, err = core.LookupAlgorithm(core.KindAllgather, "ring-source-read")
	if err != nil {
		t.Fatal(err)
	}
	checkFence(t, "allgather/ring-source-read/faults", arch.Power8(), core.KindAllgather, al.Run, 24<<10,
		Options{Procs: 8, Fault: &cfg}, true)
}

func checkFence(t *testing.T, name string, a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options, checked bool) {
	t.Helper()
	plain := Collective(a, kind, algo, count, opts)
	traced, _ := CollectiveTraced(a, kind, algo, count, opts)
	if math.Float64bits(plain) != math.Float64bits(traced) {
		t.Errorf("%s: closed-form fence latency %v != real fence %v", name, plain, traced)
	}
	if !checked {
		return
	}
	verified, _, err := CollectiveChecked(a, kind, algo, count, opts)
	if err != nil {
		t.Errorf("%s: checked run: %v", name, err)
	} else if math.Float64bits(verified) != math.Float64bits(plain) {
		t.Errorf("%s: checked latency %v != Collective's %v", name, verified, plain)
	}
}

// TestCollectiveRejectsUnknownKind: a kind payload.BufSizes does not lay
// out has no buffers to time, so Collective panics naming it instead of
// timing zero-length buffers.
func TestCollectiveRejectsUnknownKind(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "allreduce") {
			t.Fatalf("recovered %v, want a panic naming the kind", r)
		}
	}()
	Collective(arch.KNL(), core.Kind("allreduce"), core.Tuned(core.KindBcast), 4<<10, Options{Procs: 4})
}

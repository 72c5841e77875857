package measure

import (
	"fmt"
	"math"
	"testing"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/mpi"
)

// TestClosedFormFenceMatchesRealFence is the measurement fence's
// differential test: Collective costs its first entry barrier in closed
// form and skips its last exit barrier, CollectiveTraced runs both real
// barriers, and the two latencies must agree bit for bit for every kind
// and registered algorithm at 1, 2, 3, 8 and the default rank count.
// A wrong wake order after the closed-form barrier shifts same-instant
// contention and changes these bits, so the test pins the order too.
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
				checkFence(t, name, a, kind, al.Run, 32<<10, opts)
			}
		}
	}
	al, err := core.LookupAlgorithm(core.KindScatter, "throttled:4")
	if err != nil {
		t.Fatal(err)
	}
	checkFence(t, "scatter/throttled:4/iters3", arch.KNL(), core.KindScatter, al.Run, 64<<10, Options{Iters: 3, Root: 5})
	al, err = core.LookupAlgorithm(core.KindBcast, "knomial-read:8")
	if err != nil {
		t.Fatal(err)
	}
	checkFence(t, "bcast/knomial-read:8/skew", arch.Broadwell(), core.KindBcast, al.Run, 256<<10,
		Options{Iters: 2, SkewSeed: 7, MaxSkew: 40})
}

func checkFence(t *testing.T, name string, a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) {
	t.Helper()
	plain := Collective(a, kind, algo, count, opts)
	traced, _ := CollectiveTraced(a, kind, algo, count, opts)
	if math.Float64bits(plain) != math.Float64bits(traced) {
		t.Errorf("%s: closed-form fence latency %v != real fence %v", name, plain, traced)
	}
}

package core

// Property-based correctness suite: every registered algorithm of every
// collective kind is driven through randomized (rank count, message
// size, root, fault plan) cells and must land exactly the bytes MPI
// semantics demand. Sizes deliberately include the awkward cases the
// fixed-size tests never hit — 1 byte, odd non-power-of-two lengths,
// and sizes straddling a page boundary — and a third of the cells run
// under an injected-fault plan, asserting the graceful-degradation
// machinery (retries, resumed partial completions, two-copy fallback)
// changes when bytes arrive but never which bytes. Everything is
// seeded: a failure reproduces from the cell number alone.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"camc/internal/arch"
	"camc/internal/fault"
)

// propCells is the number of randomized cells per registered algorithm.
const propCells = 50

// propProcPool is the rank-count pool cells draw from: odd counts,
// non-powers-of-two and a two-socket-spanning count, alongside the
// friendly powers of two.
var propProcPool = []int{1, 2, 3, 4, 5, 6, 7, 8, 12}

// propAlgorithms enumerates every registered algorithm per kind — the
// kind registries with the parameter ladders the rest of the suite
// uses, the point-to-point/shared-memory baselines, and the tuned
// selectors.
func propAlgorithms() map[Kind][]Algorithm {
	m := map[Kind][]Algorithm{}
	m[KindScatter] = append(ScatterAlgorithms(1, 2, 3, 4, 8),
		Algorithm{Name: "binomial-pt2pt", Kind: KindScatter, Run: ScatterBinomial(TransportPt2pt)},
		Algorithm{Name: "binomial-shm", Kind: KindScatter, Run: ScatterBinomial(TransportShm)},
		Algorithm{Name: "tuned", Kind: KindScatter, Run: Tuned(KindScatter)})
	m[KindGather] = append(GatherAlgorithms(1, 2, 3, 4, 8),
		Algorithm{Name: "binomial-pt2pt", Kind: KindGather, Run: GatherBinomial(TransportPt2pt)},
		Algorithm{Name: "binomial-shm", Kind: KindGather, Run: GatherBinomial(TransportShm)},
		Algorithm{Name: "tuned", Kind: KindGather, Run: Tuned(KindGather)})
	m[KindAlltoall] = append(AlltoallAlgorithms(),
		Algorithm{Name: "pairwise-pt2pt-baseline", Kind: KindAlltoall, Run: AlltoallPairwise(TransportPt2pt)},
		Algorithm{Name: "pairwise-shm-baseline", Kind: KindAlltoall, Run: AlltoallPairwise(TransportShm)},
		Algorithm{Name: "tuned", Kind: KindAlltoall, Run: Tuned(KindAlltoall)})
	m[KindAllgather] = append(AllgatherAlgorithms(1, 3),
		Algorithm{Name: "ring-pt2pt", Kind: KindAllgather, Run: AllgatherRing(TransportPt2pt)},
		Algorithm{Name: "ring-shm", Kind: KindAllgather, Run: AllgatherRing(TransportShm)},
		Algorithm{Name: "tuned", Kind: KindAllgather, Run: Tuned(KindAllgather)})
	m[KindBcast] = append(BcastAlgorithms(2, 3, 4, 8),
		Algorithm{Name: "binomial-pt2pt", Kind: KindBcast, Run: BcastBinomial(TransportPt2pt)},
		Algorithm{Name: "binomial-shm", Kind: KindBcast, Run: BcastBinomial(TransportShm)},
		Algorithm{Name: "vandegeijn-pt2pt", Kind: KindBcast, Run: BcastVanDeGeijn(TransportPt2pt)},
		Algorithm{Name: "tuned", Kind: KindBcast, Run: Tuned(KindBcast)})
	m[KindReduce] = append(ReduceAlgorithms(2, 3, 4),
		Algorithm{Name: "tuned", Kind: KindReduce, Run: Tuned(KindReduce)})
	return m
}

// propSkip reports whether an algorithm cannot legally run at p ranks
// (mirrors the algorithm's own validation, which panics).
func propSkip(name string, p int) bool {
	var j int
	if _, err := fmt.Sscanf(name, "ring-neighbor-%d", &j); err == nil {
		return gcd(j, p) != 1
	}
	return false
}

// propRooted reports whether the kind takes a root argument.
func propRooted(kind Kind) bool {
	switch kind {
	case KindScatter, KindGather, KindBcast, KindReduce:
		return true
	}
	return false
}

// verifyReduce checks the root's receive buffer holds the elementwise
// byte sum (mod 256) of every rank's send vector.
func (f *fixture) verifyReduce(t *testing.T, root int) {
	t.Helper()
	for _, i := range sampleOffsets(f.count) {
		var want byte
		for src := 0; src < f.p; src++ {
			want += pattern(src, 0, int(i))
		}
		f.checkByte(t, root, f.recv[root], i, want, "reduce")
	}
}

// verify dispatches to the kind's payload check.
func (f *fixture) verify(t *testing.T, kind Kind, root int) {
	t.Helper()
	switch kind {
	case KindScatter:
		f.verifyScatter(t, root)
	case KindGather:
		f.verifyGather(t, root)
	case KindAlltoall:
		f.verifyAlltoall(t)
	case KindAllgather:
		f.verifyAllgather(t)
	case KindBcast:
		f.verifyBcast(t, root)
	case KindReduce:
		f.verifyReduce(t, root)
	default:
		t.Fatalf("verify: unknown kind %s", kind)
	}
}

// propSeed derives a stable per-algorithm seed from its identity, so a
// failing cell reproduces without rerunning the whole suite.
func propSeed(kind Kind, name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(string(kind) + "/" + name))
	return int64(h.Sum64() & (1<<62 - 1))
}

// propCount draws the per-rank byte count for cell ci: the first cells
// force the adversarial sizes (1 byte, 2 bytes, page-1/page/page+1
// around the architecture page, an odd page-straddler), the rest are
// uniform odd-friendly random sizes up to ~2.5 pages.
func propCount(rng *rand.Rand, ci int, page int64) int64 {
	specials := []int64{1, 2, page - 1, page, page + 1, 2*page + 3}
	if ci < len(specials) {
		return specials[ci]
	}
	return 1 + rng.Int63n(5*page/2)
}

// propFault builds the cell's fault plan: every third cell runs under
// moderate-to-heavy injection with a tight retry budget, so the suite
// exercises retries, resumed short completions AND the exhaustion →
// two-copy fallback path — all of which must be payload-invisible.
func propFault(rng *rand.Rand, ci int) *fault.Config {
	if ci%3 != 0 {
		return nil
	}
	return &fault.Config{
		Seed:          rng.Int63(),
		PartialProb:   0.20,
		TransientProb: 0.35,
		LockSpikeProb: 0.05,
		ShmStallProb:  0.05,
		MaxRetries:    2 + rng.Intn(3), // tight: force some peers into fallback
	}
}

// TestPropertyAllAlgorithms is the randomized sweep itself. Cells are
// generated per-algorithm from a seed derived from the algorithm's
// identity; nothing depends on wall clock, iteration order of maps, or
// scheduling, so every run checks the identical cell set.
func TestPropertyAllAlgorithms(t *testing.T) {
	a := arch.Broadwell()
	page := int64(a.PageSize)
	for kind, algos := range propAlgorithms() {
		kind := kind
		for _, algo := range algos {
			algo := algo
			t.Run(string(kind)+"/"+algo.Name, func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(propSeed(kind, algo.Name)))
				for ci := 0; ci < propCells; ci++ {
					p := propProcPool[rng.Intn(len(propProcPool))]
					count := propCount(rng, ci, page)
					root := 0
					if propRooted(kind) {
						root = rng.Intn(p)
					}
					fcfg := propFault(rng, ci)
					if propSkip(algo.Name, p) {
						continue
					}
					f := newFaultFixture(t, a, p, kind, count, fcfg)
					f.run(t, algo.Run, root)
					f.verify(t, kind, root)
					if t.Failed() {
						t.Fatalf("cell %d: kind=%s algo=%s p=%d count=%d root=%d faults=%v",
							ci, kind, algo.Name, p, count, root, fcfg != nil)
					}
				}
			})
		}
	}
}

// TestPropertyFaultCellsDoInject guards the suite against silently
// testing nothing: rerunning a sampling of the fault cells must show
// the plans actually fired (otherwise probabilities or thresholds
// drifted and the "with faults" half of the sweep became vacuous).
func TestPropertyFaultCellsDoInject(t *testing.T) {
	a := arch.Broadwell()
	rng := rand.New(rand.NewSource(propSeed(KindScatter, "inject-guard")))
	var injected int64
	for ci := 0; ci < 12; ci += 3 {
		fcfg := propFault(rng, ci)
		if fcfg == nil {
			t.Fatalf("cell %d: expected a fault config", ci)
		}
		f := newFaultFixture(t, a, 8, KindAlltoall, 3*int64(a.PageSize), fcfg)
		f.run(t, AlltoallPairwiseColl, 0)
		f.verifyAlltoall(t)
		st := f.comm.FaultPlan().Stats()
		injected += st.Transients + st.Partials + st.LockSpikes + st.ShmStalls
	}
	if injected == 0 {
		t.Fatal("fault cells injected nothing; the faulty half of the property suite is vacuous")
	}
}

// TestPropertySuiteCoversEveryLookupSpec cross-checks the enumeration
// above against the user-facing spec registry: every algorithm
// LookupAlgorithm can name must appear in the property pool (same Kind,
// same registered name), so adding a collective algorithm without
// extending the suite fails here rather than going silently untested.
func TestPropertySuiteCoversEveryLookupSpec(t *testing.T) {
	pool := propAlgorithms()
	check := func(kind Kind, algos []Algorithm) {
		for _, want := range algos {
			found := false
			for _, have := range pool[kind] {
				if have.Name == want.Name {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s/%s is registered but absent from the property pool", kind, want.Name)
			}
		}
	}
	check(KindScatter, ScatterAlgorithms(1, 2, 3, 4, 8))
	check(KindGather, GatherAlgorithms(1, 2, 3, 4, 8))
	check(KindAlltoall, AlltoallAlgorithms())
	check(KindAllgather, AllgatherAlgorithms(1, 3))
	check(KindBcast, BcastAlgorithms(2, 3, 4, 8))
	check(KindReduce, ReduceAlgorithms(2, 3, 4))
}

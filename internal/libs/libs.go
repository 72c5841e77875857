// Package libs models the state-of-the-art MPI libraries the paper
// compares against: MVAPICH2 2.3a, Intel MPI 2017, and Open MPI 2.1.
//
// Each comparator is assembled from the same substrates as the proposed
// designs — the two-copy shared-memory transport and the RTS/CTS +
// CMA-read point-to-point path — but uses the classic point-to-point
// based collective algorithms those libraries shipped intra-node, with
// per-library protocol thresholds:
//
//   - mvapich2: binomial scatter/gather, binomial + Van de Geijn bcast,
//     ring allgather, pairwise alltoall; CMA point-to-point rendezvous
//     above 16 KiB (its LMT threshold).
//   - intelmpi: shared-memory only — Intel MPI 2017 shipped no CMA
//     data path for intra-node collectives, so every size rides the
//     two-copy transport (binomial/ring/Van de Geijn designs).
//   - openmpi: models the Ma et al. KNEM-style kernel-assisted
//     collective module the paper cites as prior art: one-to-all and
//     all-to-one collectives use direct kernel-assisted reads/writes on
//     the root *without* contention awareness, allgathers use a ring
//     over the point-to-point path.
//
// None of the comparators throttles concurrent access to a single
// source process — that is precisely the paper's contribution.
package libs

import (
	"camc/internal/core"
	"camc/internal/mpi"
)

// Library is one comparator MPI stack: a tuned selection per collective.
type Library struct {
	Name    string
	Display string

	Scatter   func(r *mpi.Rank, a core.Args)
	Gather    func(r *mpi.Rank, a core.Args)
	Bcast     func(r *mpi.Rank, a core.Args)
	Allgather func(r *mpi.Rank, a core.Args)
	Alltoall  func(r *mpi.Rank, a core.Args)
}

// Collective returns the library's implementation of kind.
func (l Library) Collective(kind core.Kind) func(r *mpi.Rank, a core.Args) {
	switch kind {
	case core.KindScatter:
		return l.Scatter
	case core.KindGather:
		return l.Gather
	case core.KindBcast:
		return l.Bcast
	case core.KindAllgather:
		return l.Allgather
	case core.KindAlltoall:
		return l.Alltoall
	}
	panic("libs: unknown kind " + string(kind))
}

// bySize dispatches between a small-message and a large-message design.
func bySize(threshold int64, small, large func(r *mpi.Rank, a core.Args)) func(r *mpi.Rank, a core.Args) {
	return func(r *mpi.Rank, a core.Args) {
		if a.Count < threshold {
			small(r, a)
			return
		}
		large(r, a)
	}
}

// MVAPICH2 returns the MVAPICH2 2.3a comparator.
func MVAPICH2() Library {
	shm := core.TransportShm
	p2p := core.TransportPt2pt
	return Library{
		Name:    "mvapich2",
		Display: "MVAPICH2 2.3a",
		// Binomial trees over shared memory for small messages, over the
		// CMA point-to-point rendezvous path above its LMT threshold.
		Scatter: bySize(16<<10, core.ScatterBinomial(shm), core.ScatterBinomial(p2p)),
		Gather:  bySize(16<<10, core.GatherBinomial(shm), core.GatherBinomial(p2p)),
		Bcast:   bySize(32<<10, core.BcastBinomial(shm), core.BcastVanDeGeijn(p2p)),
		// Recursive doubling for the kernel-assisted range: optimal step
		// count, but its largest steps cross sockets and non-power-of-two
		// process counts need patch steps (the weakness Fig 10/16 shows).
		Allgather: bySize(16<<10, core.AllgatherRing(shm), core.AllgatherRecursiveDoubling),
		Alltoall:  bySize(16<<10, core.AlltoallPairwise(shm), core.AlltoallPairwise(p2p)),
	}
}

// IntelMPI returns the Intel MPI 2017 comparator: shared-memory only
// (no CMA data path for intra-node collectives in that release).
func IntelMPI() Library {
	shm := core.TransportShm
	return Library{
		Name:      "intelmpi",
		Display:   "Intel MPI 2017",
		Scatter:   core.ScatterBinomial(shm),
		Gather:    core.GatherBinomial(shm),
		Bcast:     bySize(32<<10, core.BcastBinomial(shm), core.BcastVanDeGeijn(shm)),
		Allgather: core.AllgatherRing(shm),
		Alltoall:  core.AlltoallPairwise(shm),
	}
}

// OpenMPI returns the Open MPI 2.1 comparator with the KNEM-style
// kernel-assisted collective component (Ma et al.) the paper cites: the
// kernel-assisted paths are used eagerly but with no contention
// awareness.
func OpenMPI() Library {
	shm := core.TransportShm
	p2p := core.TransportPt2pt
	return Library{
		Name:    "openmpi",
		Display: "Open MPI 2.1",
		// Kernel-assisted one-to-all/all-to-one without throttling:
		// every non-root hits the root concurrently (the prior-art
		// design whose lock contention the paper quantifies).
		Scatter:   bySize(16<<10, core.ScatterBinomial(shm), core.ScatterParallelRead),
		Gather:    bySize(16<<10, core.GatherBinomial(shm), core.GatherParallelWrite),
		Bcast:     bySize(32<<10, core.BcastBinomial(shm), core.BcastDirectRead),
		Allgather: bySize(16<<10, core.AllgatherRing(shm), core.AllgatherRing(p2p)),
		Alltoall:  bySize(16<<10, core.AlltoallPairwise(shm), core.AlltoallPairwise(p2p)),
	}
}

// Proposed returns the paper's design ("CMA-coll" / MVAPICH2-OPT) as a
// Library, so harnesses can sweep it alongside the comparators.
func Proposed() Library {
	return Library{
		Name:      "proposed",
		Display:   "Proposed (CMA-coll)",
		Scatter:   core.Tuned(core.KindScatter),
		Gather:    core.Tuned(core.KindGather),
		Bcast:     core.Tuned(core.KindBcast),
		Allgather: core.Tuned(core.KindAllgather),
		Alltoall:  core.Tuned(core.KindAlltoall),
	}
}

// Comparators returns the three baseline libraries.
func Comparators() []Library {
	return []Library{MVAPICH2(), IntelMPI(), OpenMPI()}
}

// All returns the proposed design followed by the comparators.
func All() []Library {
	return append([]Library{Proposed()}, Comparators()...)
}

// ByName looks a library up by short name.
func ByName(name string) (Library, bool) {
	for _, l := range All() {
		if l.Name == name {
			return l, true
		}
	}
	return Library{}, false
}

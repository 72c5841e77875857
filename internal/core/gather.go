package core

import (
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// Gather semantics: every rank contributes Count bytes at Send; the root
// ends with p blocks at Recv in absolute rank order. With InPlace, the
// root's own block is already at Recv[root].

// GatherParallelWrite (§IV-B.1): the root broadcasts its receive-buffer
// address; every non-root writes its block concurrently (concurrency p−1
// on the root's mm) and notifies the root.
//
//	T = T^sm_bcast + α + ηβ + l·γ_{p−1}·⌈η/s⌉ + T^sm_gather
func GatherParallelWrite(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "gather:parallel-write", a)
	defer rec.End(span)
	p := r.Size()
	recvAddr := kernel.Addr(r.Bcast64(a.Root, int64(a.Recv)))
	if r.ID == a.Root {
		if !a.InPlace {
			r.LocalCopy(a.Recv+kernel.Addr(int64(a.Root)*a.Count), a.Send, a.Count)
		}
		for i := 0; i < p-1; i++ {
			r.WaitNotify(nonRootByIndex(i, a.Root, p))
		}
		return
	}
	r.VMWrite(a.Send, a.Root, recvAddr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	r.Notify(a.Root)
}

// GatherSeqRead (§IV-B.2): the root gathers every send-buffer address and
// reads each block with a contention-free CMA read, one rank at a time,
// then broadcasts completion.
//
//	T = T_memcpy + T^sm_gather + (p−1)(α + ηβ + l·⌈η/s⌉) + T^sm_bcast
func GatherSeqRead(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "gather:sequential-read", a)
	defer rec.End(span)
	p := r.Size()
	addrs := r.Gather64(a.Root, int64(a.Send))
	if r.ID == a.Root {
		if !a.InPlace {
			r.LocalCopy(a.Recv+kernel.Addr(int64(a.Root)*a.Count), a.Send, a.Count)
		}
		for idx := 0; idx < p-1; idx++ {
			src := nonRootByIndex(idx, a.Root, p)
			r.VMRead(a.Recv+kernel.Addr(int64(src)*a.Count), src, kernel.Addr(addrs[src]), a.Count)
		}
	}
	r.Bcast64(a.Root, 0) // completion notification
}

// GatherThrottled (§IV-B.3): at most k non-roots write into the root's
// receive buffer concurrently, with the same pipelined point-to-point
// release chain as ScatterThrottled.
//
//	T ≈ T^sm_bcast + ⌈(p−1)/k⌉(α + ηβ + l·γ_k·⌈η/s⌉)
func GatherThrottled(k int) func(r *mpi.Rank, a Args) {
	if k < 1 {
		panic("core: throttle factor must be >= 1")
	}
	name := "gather:" + throttleName(k)
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		recvAddr := kernel.Addr(r.Bcast64(a.Root, int64(a.Recv)))
		if r.ID == a.Root {
			if !a.InPlace {
				r.LocalCopy(a.Recv+kernel.Addr(int64(a.Root)*a.Count), a.Send, a.Count)
			}
			first := p - 1 - k
			if first < 0 {
				first = 0
			}
			for idx := first; idx < p-1; idx++ {
				r.WaitNotify(nonRootByIndex(idx, a.Root, p))
			}
			return
		}
		idx := nonRootIndex(r.ID, a.Root, p)
		if idx-k >= 0 {
			r.WaitNotify(nonRootByIndex(idx-k, a.Root, p))
		}
		tokenAcquire(r, k)
		r.VMWrite(a.Send, a.Root, recvAddr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
		if idx+k <= p-2 {
			to := nonRootByIndex(idx+k, a.Root, p)
			tokenRelease(r, to, k)
			r.Notify(to)
		} else {
			tokenRelease(r, a.Root, k)
			r.Notify(a.Root)
		}
	}
}

// GatherAlgorithms returns the registered Gather implementations.
func GatherAlgorithms(throttles ...int) []Algorithm {
	algos := []Algorithm{
		{Name: "parallel-write", Kind: KindGather, Run: GatherParallelWrite},
		{Name: "sequential-read", Kind: KindGather, Run: GatherSeqRead},
	}
	for _, k := range throttles {
		algos = append(algos, Algorithm{
			Name: throttleName(k),
			Kind: KindGather,
			Run:  GatherThrottled(k),
		})
	}
	return algos
}

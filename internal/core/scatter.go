package core

import (
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// Scatter semantics: the root holds p blocks of Count bytes at Send
// (block i for rank i, in absolute rank order); every rank ends with its
// block at Recv. With InPlace, the root's own block stays in Send.

// ScatterParallelRead (§IV-A.1): the root broadcasts its send-buffer
// address through shared memory; every non-root then reads its block
// concurrently (concurrency p−1 on the root's mm) and notifies the root.
//
//	T = T^sm_bcast + α + ηβ + l·γ_{p−1}·⌈η/s⌉ + T^sm_gather
func ScatterParallelRead(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "scatter:parallel-read", a)
	defer rec.End(span)
	p := r.Size()
	sendAddr := kernel.Addr(r.Bcast64(a.Root, int64(a.Send)))
	if r.ID == a.Root {
		if !a.InPlace {
			r.LocalCopy(a.Recv, a.Send+kernel.Addr(int64(a.Root)*a.Count), a.Count)
		}
		for i := 0; i < p-1; i++ {
			r.WaitNotify(nonRootByIndex(i, a.Root, p))
		}
		return
	}
	r.VMRead(a.Recv, a.Root, sendAddr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	r.Notify(a.Root)
}

// ScatterSeqWrite (§IV-A.2): the root gathers every receive-buffer
// address and writes each block with a contention-free CMA write, one
// rank at a time, then broadcasts completion.
//
//	T = T_memcpy + T^sm_gather + (p−1)(α + ηβ + l·⌈η/s⌉) + T^sm_bcast
func ScatterSeqWrite(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "scatter:sequential-write", a)
	defer rec.End(span)
	p := r.Size()
	addrs := r.Gather64(a.Root, int64(a.Recv))
	if r.ID == a.Root {
		if !a.InPlace {
			r.LocalCopy(a.Recv, a.Send+kernel.Addr(int64(a.Root)*a.Count), a.Count)
		}
		for idx := 0; idx < p-1; idx++ {
			dst := nonRootByIndex(idx, a.Root, p)
			r.VMWrite(a.Send+kernel.Addr(int64(dst)*a.Count), dst, kernel.Addr(addrs[dst]), a.Count)
		}
	}
	r.Bcast64(a.Root, 0) // completion notification
}

// ScatterThrottled (§IV-A.3): at most k non-roots read from the root
// concurrently. Synchronization is pipelined point-to-point: non-root
// index i first waits for a 0-byte message from index i−k (if any),
// reads its block, then releases index i+k. The root waits only for the
// final wave.
//
//	T ≈ T^sm_bcast + ⌈(p−1)/k⌉(α + ηβ + l·γ_k·⌈η/s⌉)
func ScatterThrottled(k int) func(r *mpi.Rank, a Args) {
	if k < 1 {
		panic("core: throttle factor must be >= 1")
	}
	name := "scatter:" + throttleName(k)
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		sendAddr := kernel.Addr(r.Bcast64(a.Root, int64(a.Send)))
		if r.ID == a.Root {
			if !a.InPlace {
				r.LocalCopy(a.Recv, a.Send+kernel.Addr(int64(a.Root)*a.Count), a.Count)
			}
			// The final wave is the last min(k, p-1) non-roots.
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
		r.VMRead(a.Recv, a.Root, sendAddr+kernel.Addr(int64(r.ID)*a.Count), a.Count)
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

// ScatterAlgorithms returns the registered Scatter implementations, with
// throttle factors appropriate for up to maxProcs ranks.
func ScatterAlgorithms(throttles ...int) []Algorithm {
	algos := []Algorithm{
		{Name: "parallel-read", Kind: KindScatter, Run: ScatterParallelRead},
		{Name: "sequential-write", Kind: KindScatter, Run: ScatterSeqWrite},
	}
	for _, k := range throttles {
		algos = append(algos, Algorithm{
			Name: throttleName(k),
			Kind: KindScatter,
			Run:  ScatterThrottled(k),
		})
	}
	return algos
}

func throttleName(k int) string { return "throttle-" + itoa(k) }

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

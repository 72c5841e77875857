package core

import (
	"camc/internal/kernel"
	"camc/internal/mpi"
	"camc/internal/trace"
)

// Bcast semantics: the root's Count bytes at Send end up at Recv on every
// other rank (the root's own data stays in Send).

// bcastBuf returns the buffer a rank exposes/fills for a broadcast.
func bcastBuf(r *mpi.Rank, a Args) kernel.Addr {
	if r.ID == a.Root {
		return a.Send
	}
	return a.Recv
}

// BcastDirectRead (§V-B.1): every non-root reads the whole message from
// the root concurrently — maximal contention, the baseline the k-nomial
// designs beat.
//
//	T = T^sm_bcast + α + ηβ + l·γ_{p−1}·⌈η/s⌉ + T^sm_gather
func BcastDirectRead(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "bcast:direct-read", a)
	defer rec.End(span)
	p := r.Size()
	srcAddr := kernel.Addr(r.Bcast64(a.Root, int64(a.Send)))
	if r.ID == a.Root {
		for i := 0; i < p-1; i++ {
			r.WaitNotify(nonRootByIndex(i, a.Root, p))
		}
		return
	}
	r.VMRead(a.Recv, a.Root, srcAddr, a.Count)
	r.Notify(a.Root)
}

// BcastDirectWrite (§V-B.1): the root writes the message to every
// non-root sequentially — contention-free but p−1 serial transfers.
//
//	T = T^sm_gather + (p−1)(α + ηβ + l·⌈η/s⌉) + T^sm_bcast
func BcastDirectWrite(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "bcast:direct-write", a)
	defer rec.End(span)
	p := r.Size()
	addrs := r.Gather64(a.Root, int64(a.Recv))
	if r.ID == a.Root {
		for idx := 0; idx < p-1; idx++ {
			dst := nonRootByIndex(idx, a.Root, p)
			r.VMWrite(a.Send, dst, kernel.Addr(addrs[dst]), a.Count)
		}
	}
	r.Bcast64(a.Root, 0) // completion
}

// knomialChildren returns the children of relative rank rel in a base-k
// tree over p ranks, grouped by level in descending subtree-size order,
// plus rel's parent (or -1 for the root). In a base-k tree a node serves
// at most k−1 children per level, so at most k−1 processes read a buffer
// concurrently.
func knomialChildren(rel, p, k int) (parent int, levels [][]int) {
	// mask = the k-power of rel's lowest non-zero base-k digit (or the
	// smallest k-power >= p for the root, whose children span all
	// levels).
	mask := 1
	if rel == 0 {
		for mask < p {
			mask *= k
		}
		parent = -1
	} else {
		for rel/mask%k == 0 {
			mask *= k
		}
		parent = rel - rel/mask%k*mask
	}
	// Children live at levels strictly below mask.
	for m := mask / k; m >= 1; m /= k {
		var lvl []int
		for d := 1; d < k; d++ {
			child := rel + d*m
			if child < p {
				lvl = append(lvl, child)
			}
		}
		if len(lvl) > 0 {
			levels = append(levels, lvl)
		}
	}
	return parent, levels
}

// BcastKnomialRead (§V-B.2): a base-k tree broadcast where, level by
// level, up to k−1 children concurrently read the message from their
// parent. The parent releases one level at a time and waits for its
// completion, bounding the concurrency on any buffer to k−1.
//
//	T = T^sm_bcast + ⌈log_k p⌉(α + ηβ + l·γ_{k−1}·⌈η/s⌉)
func BcastKnomialRead(k int) func(r *mpi.Rank, a Args) {
	if k < 2 {
		panic("core: k-nomial base must be >= 2")
	}
	name := "bcast:knomial-read-" + itoa(k)
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		buf := bcastBuf(r, a)
		addrs := r.Allgather64(int64(buf))
		rel := relRank(r.ID, a.Root, p)
		parent, levels := knomialChildren(rel, p, k)
		if parent >= 0 {
			pr := absRank(parent, a.Root, p)
			r.WaitNotify(pr) // parent's buffer is valid
			r.VMRead(a.Recv, pr, kernel.Addr(addrs[pr]), a.Count)
			r.Notify(pr) // read complete
		}
		for li, lvl := range levels {
			ls := beginPhase(r, "serve_level",
				trace.F("level", float64(li)), trace.F("fanout", float64(len(lvl))))
			for _, c := range lvl {
				r.Notify(absRank(c, a.Root, p))
			}
			for _, c := range lvl {
				r.WaitNotify(absRank(c, a.Root, p))
			}
			endPhase(r, ls)
		}
	}
}

// BcastKnomialWrite (§V-B.2): the write-based dual — each parent writes
// the message to its k−1 children of a level sequentially, then moves to
// the next level while the children serve their own subtrees.
//
//	T = T^sm_gather + ⌈log_k p⌉(k−1)(α + ηβ + l·⌈η/s⌉)
func BcastKnomialWrite(k int) func(r *mpi.Rank, a Args) {
	if k < 2 {
		panic("core: k-nomial base must be >= 2")
	}
	name := "bcast:knomial-write-" + itoa(k)
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		buf := bcastBuf(r, a)
		addrs := r.Allgather64(int64(buf))
		rel := relRank(r.ID, a.Root, p)
		parent, levels := knomialChildren(rel, p, k)
		srcAddr := buf
		if parent >= 0 {
			pr := absRank(parent, a.Root, p)
			r.WaitNotify(pr) // parent finished writing to us
		}
		for li, lvl := range levels {
			ls := beginPhase(r, "serve_level",
				trace.F("level", float64(li)), trace.F("fanout", float64(len(lvl))))
			for _, c := range lvl {
				ca := absRank(c, a.Root, p)
				r.VMWrite(srcAddr, ca, kernel.Addr(addrs[ca]), a.Count)
				r.Notify(ca)
			}
			endPhase(r, ls)
		}
	}
}

// BcastScatterAllgather (§V-B.3, Van de Geijn): the root scatters η/p
// chunks (sequential writes — contention-free), then a ring-source-read
// allgather reassembles the full message everywhere. The scatter step is
// the only contended one; the allgather reads hit p distinct sources.
//
//	T = T^sm_allgather + T_scatter(η/p) + T_allgather(η/p)
func BcastScatterAllgather(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "bcast:scatter-allgather", a)
	defer rec.End(span)
	p := r.Size()
	buf := bcastBuf(r, a)
	if p == 1 {
		return
	}
	chunk := (a.Count + int64(p) - 1) / int64(p)
	addrs := r.Allgather64(int64(buf))
	me := r.ID

	chunkOf := func(i int) (kernel.Addr, int64) {
		off := int64(i) * chunk
		if off >= a.Count {
			return 0, 0
		}
		n := chunk
		if a.Count-off < n {
			n = a.Count - off
		}
		return kernel.Addr(off), n
	}

	// Phase 1: sequential-write scatter — chunk rel goes to the rank at
	// relative position rel, so the root keeps chunk 0. Contention-free
	// (one writer), and each delivery is signalled so the ring can start
	// pipelined behind the scatter.
	rel := relRank(me, a.Root, p)
	sc := beginPhase(r, "scatter_phase", trace.F("chunk", float64(chunk)))
	if me == a.Root {
		for relDst := 1; relDst < p; relDst++ {
			dst := absRank(relDst, a.Root, p)
			off, n := chunkOf(relDst)
			if n > 0 {
				r.VMWrite(buf+off, dst, kernel.Addr(addrs[dst])+off, n)
			}
			r.Notify(dst) // chunk delivered
		}
	} else {
		r.WaitNotify(a.Root)
	}
	endPhase(r, sc)

	// Phase 2: ring-neighbor allgather of the chunks in relative space:
	// in step i, read chunk (rel−i) mod p from the previous ring member,
	// gated by its per-step notifications. Every rank reads from exactly
	// one neighbor, so the phase is contention-free. The root already
	// holds the full message and only feeds the chain.
	// Relative rank p−1 feeds nobody (its ring successor is the root,
	// which already holds everything), so it posts no notifications;
	// every posted notification is consumed, keeping the shared-memory
	// queues clean across invocations.
	rg := beginPhase(r, "ring_phase")
	next := absRank((rel+1)%p, a.Root, p)
	prev := absRank((rel-1+p)%p, a.Root, p)
	feeds := rel != p-1
	if rel == 0 {
		for i := 0; i < p-1; i++ {
			r.Notify(next)
		}
	} else {
		if feeds {
			r.Notify(next) // own chunk staged
		}
		for i := 1; i < p; i++ {
			r.WaitNotify(prev)
			srcRel := (rel - i + p) % p
			off, n := chunkOf(srcRel)
			if n > 0 {
				r.VMRead(buf+off, prev, kernel.Addr(addrs[prev])+off, n)
			}
			if feeds && i < p-1 {
				r.Notify(next)
			}
		}
	}
	endPhase(r, rg)
	r.Barrier()
}

// BcastAlgorithms returns the registered Bcast implementations.
func BcastAlgorithms(knomialKs ...int) []Algorithm {
	algos := []Algorithm{
		{Name: "direct-read", Kind: KindBcast, Run: BcastDirectRead},
		{Name: "direct-write", Kind: KindBcast, Run: BcastDirectWrite},
		{Name: "scatter-allgather", Kind: KindBcast, Run: BcastScatterAllgather},
	}
	for _, k := range knomialKs {
		algos = append(algos,
			Algorithm{Name: "knomial-read-" + itoa(k), Kind: KindBcast, Run: BcastKnomialRead(k)},
			Algorithm{Name: "knomial-write-" + itoa(k), Kind: KindBcast, Run: BcastKnomialWrite(k)},
		)
	}
	return algos
}

package core

// Reduce: the paper's §IX future work ("we plan to extend
// these designs to other collectives"), built here with the same
// contention-aware machinery. Reduce combines one Count-byte vector per
// rank elementwise at the root (the simulation's operator is byte-wise
// addition, associative and commutative, so tree reductions are exact).
//
// The contention analysis carries over directly: a reduction is an
// all-to-one pattern, so unthrottled designs pile p−1 concurrent
// accesses onto one mm, while the k-ary tree bounds the concurrency on
// any buffer to its fan-in.

import (
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// reduceCopyCombine pulls src rank's buffer into a scratch area and
// combines it into acc.
func reduceCopyCombine(r *mpi.Rank, scratch, acc kernel.Addr, src int, srcAddr kernel.Addr, n int64) {
	r.VMRead(scratch, src, srcAddr, n)
	r.OS.Combine(r.SP, acc, scratch, n)
}

// ReduceFlat (baseline): the root sequentially reads every rank's vector
// and combines — contention-free but p−1 serial read+combine steps, the
// all-to-one analogue of Sequential Reads.
func ReduceFlat(r *mpi.Rank, a Args) {
	a.validate(r)
	p := r.Size()
	addrs := r.Gather64(a.Root, int64(a.Send))
	if r.ID == a.Root {
		if !a.InPlace {
			r.LocalCopy(a.Recv, a.Send, a.Count)
		}
		scratch := r.Alloc(a.Count)
		for idx := 0; idx < p-1; idx++ {
			src := nonRootByIndex(idx, a.Root, p)
			reduceCopyCombine(r, scratch, a.Recv, src, kernel.Addr(addrs[src]), a.Count)
		}
	}
	r.Bcast64(a.Root, 0) // completion
}

// ReduceParallelWrite (the contention-unaware design): every non-root
// writes its vector into a per-rank slot of the root's staging area
// concurrently (γ_{p−1} on the root's mm), then the root combines all
// slots. This is the prior-art shape the k-ary tree beats.
func ReduceParallelWrite(r *mpi.Rank, a Args) {
	a.validate(r)
	p := r.Size()
	var stage kernel.Addr
	if r.ID == a.Root {
		stage = r.Alloc(int64(p) * a.Count)
	}
	stage = kernel.Addr(r.Bcast64(a.Root, int64(stage)))
	if r.ID != a.Root {
		r.VMWrite(a.Send, a.Root, stage+kernel.Addr(int64(r.ID)*a.Count), a.Count)
		r.Notify(a.Root)
		return
	}
	if !a.InPlace {
		r.LocalCopy(a.Recv, a.Send, a.Count)
	}
	for i := 0; i < p-1; i++ {
		r.WaitNotify(nonRootByIndex(i, a.Root, p))
	}
	for src := 0; src < p; src++ {
		if src == a.Root {
			continue
		}
		r.OS.Combine(r.SP, a.Recv, stage+kernel.Addr(int64(src)*a.Count), a.Count)
	}
}

// ReduceKnomial is the contention-aware design: a base-k reduction tree.
// Each node accumulates its own vector, then — level by level, mirroring
// the k-nomial broadcast upside down — reads each child's accumulated
// subtree vector (contention-free: one reader per buffer) and combines.
// Depth is ⌈log_k p⌉ with k−1 sequential read+combine steps per level,
// the reduction dual of the throttled/k-nomial sweet spot.
func ReduceKnomial(k int) func(r *mpi.Rank, a Args) {
	if k < 2 {
		panic("core: k-nomial base must be >= 2")
	}
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		p := r.Size()
		// Every rank accumulates into a private buffer (leaves could
		// expose Send directly, but a uniform layout keeps the address
		// exchange to one allgather).
		acc := r.Alloc(a.Count)
		r.LocalCopy(acc, a.Send, a.Count)
		addrs := r.Allgather64(int64(acc))
		rel := relRank(r.ID, a.Root, p)
		parent, levels := knomialChildren(rel, p, k)
		scratch := r.Alloc(a.Count)
		// Collect children lowest level first: their subtrees are
		// smaller and complete sooner, mirroring the broadcast order
		// reversed.
		for li := len(levels) - 1; li >= 0; li-- {
			for _, c := range levels[li] {
				ca := absRank(c, a.Root, p)
				r.WaitNotify(ca) // child's subtree is fully accumulated
				reduceCopyCombine(r, scratch, acc, ca, kernel.Addr(addrs[ca]), a.Count)
			}
		}
		if parent >= 0 {
			r.Notify(absRank(parent, a.Root, p))
			// The parent reads acc; wait for the global completion
			// broadcast before returning (acc must stay valid).
			r.Bcast64(a.Root, 0)
			return
		}
		// Root: deposit the result.
		r.LocalCopy(a.Recv, acc, a.Count)
		r.Bcast64(a.Root, 0)
	}
}

// ReduceBinomialPt2pt is the classic library baseline: a binomial
// reduction over point-to-point transfers (each message is a full
// vector; interior nodes combine as they receive).
func ReduceBinomialPt2pt(tr Transport) func(r *mpi.Rank, a Args) {
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		p := r.Size()
		rel := relRank(r.ID, a.Root, p)
		acc := r.Alloc(a.Count)
		scratch := r.Alloc(a.Count)
		r.LocalCopy(acc, a.Send, a.Count)
		// Receive from children (mask ascending), combine, then send to
		// the parent.
		top := lowbit(rel)
		if rel == 0 {
			top = 1
			for top < p {
				top <<= 1
			}
		}
		for mask := 1; mask < top; mask <<= 1 {
			child := rel + mask
			if child >= p {
				continue
			}
			tr.recv(r, absRank(child, a.Root, p), scratch, a.Count)
			r.OS.Combine(r.SP, acc, scratch, a.Count)
		}
		if rel != 0 {
			parent := rel - lowbit(rel)
			tr.send(r, absRank(parent, a.Root, p), acc, a.Count)
			return
		}
		r.LocalCopy(a.Recv, acc, a.Count)
	}
}

// KindReduce extends the collective registry for the future-work
// designs.
const KindReduce Kind = "reduce"

// ReduceAlgorithms returns the registered Reduce implementations.
func ReduceAlgorithms(ks ...int) []Algorithm {
	algos := []Algorithm{
		{Name: "flat-sequential", Kind: KindReduce, Run: ReduceFlat},
		{Name: "parallel-write", Kind: KindReduce, Run: ReduceParallelWrite},
		{Name: "binomial-pt2pt", Kind: KindReduce, Run: ReduceBinomialPt2pt(TransportPt2pt)},
		{Name: "binomial-shm", Kind: KindReduce, Run: ReduceBinomialPt2pt(TransportShm)},
	}
	for _, k := range ks {
		algos = append(algos, Algorithm{Name: "knomial-" + itoa(k), Kind: KindReduce, Run: ReduceKnomial(k)})
	}
	return algos
}

package core

import (
	"fmt"

	"camc/internal/kernel"
	"camc/internal/mpi"
)

// Allgather semantics: every rank contributes Count bytes at Send and
// ends with p blocks at Recv, block j from rank j. With InPlace the
// caller's block is already at Recv[rank].

// AllgatherRingNeighbor (§V-A.1): the generalized ring. In step i each
// rank reads block (rank − i·j) mod p from neighbor (rank − j) mod p's
// *receive* buffer, which requires a notification chain: a block may be
// read only after the neighbor has finished its previous step. Requires
// gcd(p, j) == 1. j = 1 is the classic ring (mostly intra-socket under
// block placement); larger j forces inter-socket traffic — the paper's
// Neighbor-1 vs Neighbor-5 experiment.
//
//	T = T_memcpy + T^sm_allgather + (p−1)(α + ηβ + l·⌈η/s⌉) + sync
func AllgatherRingNeighbor(j int) func(r *mpi.Rank, a Args) {
	if j < 1 {
		panic("core: ring neighbor stride must be >= 1")
	}
	name := "allgather:ring-neighbor-" + itoa(j)
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		if gcd(p, j%p) != 1 && p > 1 {
			panic(fmt.Sprintf("core: ring-neighbor-%d invalid for p=%d (gcd != 1)", j, p))
		}
		if !a.InPlace {
			r.LocalCopy(a.Recv+kernel.Addr(int64(r.ID)*a.Count), a.Send, a.Count)
		}
		if p == 1 {
			return
		}
		addrs := r.Allgather64(int64(a.Recv))
		from := (r.ID - j%p + p) % p
		to := (r.ID + j) % p
		r.Notify(to) // own block staged (step 0 complete)
		for i := 1; i < p; i++ {
			r.WaitNotify(from) // neighbor finished step i-1
			collStep(r, i, from)
			blk := (r.ID - i*j%p + p) % p
			r.VMRead(a.Recv+kernel.Addr(int64(blk)*a.Count), from,
				kernel.Addr(addrs[from])+kernel.Addr(int64(blk)*a.Count), a.Count)
			if i < p-1 {
				r.Notify(to)
			}
		}
	}
}

// AllgatherRingSourceRead (§V-A.2): in step i each rank reads rank
// (rank−i)'s block directly from its *send* buffer, which is always
// valid: no per-step synchronization, and contention-free unless skew
// piles readers onto one source. A final barrier marks completion.
//
//	T = T_memcpy + T^sm_allgather + (p−1)(α + ηβ + l·⌈η/s⌉) + T_barrier
func AllgatherRingSourceRead(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "allgather:ring-source-read", a)
	defer rec.End(span)
	p := r.Size()
	srcAddr := a.Send
	if a.InPlace {
		srcAddr = a.Recv + kernel.Addr(int64(r.ID)*a.Count)
	} else {
		r.LocalCopy(a.Recv+kernel.Addr(int64(r.ID)*a.Count), a.Send, a.Count)
	}
	addrs := r.Allgather64(int64(srcAddr))
	for i := 1; i < p; i++ {
		src := (r.ID - i + p) % p
		r.VMRead(a.Recv+kernel.Addr(int64(src)*a.Count), src, kernel.Addr(addrs[src]), a.Count)
	}
	r.Barrier()
}

// AllgatherRingSourceWrite (§V-A.2): the write-based dual — in step i
// each rank writes its own block into rank (rank+i)'s receive buffer.
//
//	T = T_memcpy + T^sm_allgather + (p−1)(α + ηβ + l·⌈η/s⌉) + T_barrier
func AllgatherRingSourceWrite(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "allgather:ring-source-write", a)
	defer rec.End(span)
	p := r.Size()
	srcAddr := a.Send
	if a.InPlace {
		srcAddr = a.Recv + kernel.Addr(int64(r.ID)*a.Count)
	} else {
		r.LocalCopy(a.Recv+kernel.Addr(int64(r.ID)*a.Count), a.Send, a.Count)
	}
	addrs := r.Allgather64(int64(a.Recv))
	for i := 1; i < p; i++ {
		dst := (r.ID + i) % p
		r.VMWrite(srcAddr, dst, kernel.Addr(addrs[dst])+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	}
	r.Barrier()
}

// rdRow appends to dst[:0] the sorted blocks rank r holds after k
// recursive-doubling steps among p ranks and returns it. A rank reads
// only its own rows and its partners', so no rank builds the table of
// every rank.
//
// Step j pairs each rank x with x^(1<<j) when that partner exists, so
// block b can reach r only inside r's aligned 2^k-rank group, along the
// one path that sets the bits where they differ to r's, lowest first.
// At a differing bit j the block passes from h (r's bits below j, b's
// bits from j up) to h^(1<<j), and both must exist: h|(1<<j) < p. That
// test depends only on b's bits from j up, so rdRow fixes b's bits from
// the top down, prunes a prefix as soon as a hand-off is missing, and
// emits a whole aligned range at once when every rank in it exists.
func rdRow(dst []int, p, k, r int) []int {
	return rdBlocks(dst[:0], p, r, r>>k<<k, k)
}

// rdBlocks appends, in increasing order, the blocks rank r holds whose
// bits from j up are those of prefix. It is entered only where the rank
// with prefix's bits from j up and r's bits below j exists, so prefix
// < p when j reaches 0.
func rdBlocks(dst []int, p, r, prefix, j int) []int {
	if end := prefix + 1<<j; end <= p {
		// Every rank under this prefix exists, so every hand-off does.
		for b := prefix; b < end; b++ {
			dst = append(dst, b)
		}
		return dst
	}
	bit := 1 << (j - 1)
	for _, b := range [2]int{prefix, prefix | bit} {
		if (b^r)&bit != 0 && b|bit|r&(bit-1) >= p {
			continue
		}
		dst = rdBlocks(dst, p, r, b, j-1)
	}
	return dst
}

// diffSorted returns the elements of b not present in a (both sorted).
func diffSorted(a, b []int) []int {
	var out []int
	i := 0
	for _, v := range b {
		for i < len(a) && a[i] < v {
			i++
		}
		if i < len(a) && a[i] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}

// contiguousRuns splits a sorted block list into maximal contiguous runs
// (start, length); each run becomes one CMA transfer.
func contiguousRuns(blocks []int) [][2]int {
	var runs [][2]int
	for i := 0; i < len(blocks); {
		j := i + 1
		for j < len(blocks) && blocks[j] == blocks[j-1]+1 {
			j++
		}
		runs = append(runs, [2]int{blocks[i], j - i})
		i = j
	}
	return runs
}

// AllgatherRecursiveDoubling (§V-A.3): in step k, ranks at distance 2^k
// exchange everything they have accumulated so far, doubling their block
// sets. For non-power-of-two p the pairing is incomplete: skipped ranks
// leave holes that are patched afterwards by direct reads from the block
// owners' send buffers — the extra steps (and the non-contiguous
// transfers) that cost recursive doubling its advantage on Broadwell.
func AllgatherRecursiveDoubling(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "allgather:recursive-doubling", a)
	defer rec.End(span)
	p := r.Size()
	me := r.ID
	srcOwn := a.Send
	if a.InPlace {
		srcOwn = a.Recv + kernel.Addr(int64(me)*a.Count)
	} else {
		r.LocalCopy(a.Recv+kernel.Addr(int64(me)*a.Count), a.Send, a.Count)
	}
	if p == 1 {
		return
	}
	// The source-buffer addresses double as the patch-phase source and
	// the recv addresses serve the exchange phase.
	recvAddrs := r.Allgather64(int64(a.Recv))
	ownAddrs := r.Allgather64(int64(srcOwn))

	var mine, theirs []int
	nsteps := ceilLog(2, p)
	for k := 0; k < nsteps; k++ {
		partner := me ^ (1 << k)
		if partner >= p {
			continue
		}
		// Handshake: both sides must have completed step k-1.
		r.Notify(partner)
		r.WaitNotify(partner)
		collStep(r, k, partner)
		// Read the blocks the partner has (after step k) that we lack.
		mine, theirs = rdRow(mine, p, k, me), rdRow(theirs, p, k, partner)
		want := diffSorted(mine, theirs)
		for _, run := range contiguousRuns(want) {
			r.VMRead(a.Recv+kernel.Addr(int64(run[0])*a.Count), partner,
				kernel.Addr(recvAddrs[partner])+kernel.Addr(int64(run[0])*a.Count),
				int64(run[1])*a.Count)
		}
	}
	// Patch any holes by reading directly from each owner's send buffer.
	held := rdRow(mine, p, nsteps, me)
	for blk := 0; blk < p; blk++ {
		if len(held) > 0 && held[0] == blk {
			held = held[1:]
			continue
		}
		r.VMRead(a.Recv+kernel.Addr(int64(blk)*a.Count), blk, kernel.Addr(ownAddrs[blk]), a.Count)
	}
	r.Barrier()
}

// AllgatherBruck (§V-A.4): step k reads 2^k (or the remaining) leading
// blocks of (rank+2^k)'s output buffer and appends them; a final local
// rotation restores rank order, costing up to (p−1)ηβ extra — why Bruck
// wins small messages and loses large ones.
func AllgatherBruck(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "allgather:bruck", a)
	defer rec.End(span)
	p := r.Size()
	me := r.ID
	if p == 1 {
		if !a.InPlace {
			r.LocalCopy(a.Recv, a.Send, a.Count)
		}
		return
	}
	work := r.Alloc(int64(p) * a.Count)
	if a.InPlace {
		r.LocalCopy(work, a.Recv+kernel.Addr(int64(me)*a.Count), a.Count)
	} else {
		r.LocalCopy(work, a.Send, a.Count)
	}
	addrs := r.Allgather64(int64(work))
	filled := 1
	step := 0
	for filled < p {
		peer := (me + filled) % p
		n := filled
		if p-filled < n {
			n = p - filled
		}
		// Handshake: tell the rank that reads from us that our buffer
		// holds the previous step's blocks, and wait for the same from
		// the peer we read from.
		r.Notify((me - filled + p) % p)
		r.WaitNotify(peer)
		collStep(r, step, peer)
		r.VMRead(work+kernel.Addr(int64(filled)*a.Count), peer, kernel.Addr(addrs[peer]), int64(n)*a.Count)
		filled += n
		step++
	}
	// Final rotation: Recv[(me+i) mod p] = work[i], as one run of
	// stepped copies (kernel.Blocks).
	b := r.Blocks()
	for i := 0; i < p; i++ {
		b.Add(a.Recv+kernel.Addr(int64((me+i)%p)*a.Count), work+kernel.Addr(int64(i)*a.Count), a.Count)
	}
	b.Run()
	r.Barrier()
}

// AllgatherAlgorithms returns the registered Allgather implementations.
// Neighbor strides beyond 1 are added by callers that study socket
// effects.
func AllgatherAlgorithms(neighborStrides ...int) []Algorithm {
	algos := []Algorithm{
		{Name: "ring-source-read", Kind: KindAllgather, Run: AllgatherRingSourceRead},
		{Name: "ring-source-write", Kind: KindAllgather, Run: AllgatherRingSourceWrite},
		{Name: "recursive-doubling", Kind: KindAllgather, Run: AllgatherRecursiveDoubling},
		{Name: "bruck", Kind: KindAllgather, Run: AllgatherBruck},
	}
	for _, j := range neighborStrides {
		algos = append(algos, Algorithm{
			Name: "ring-neighbor-" + itoa(j),
			Kind: KindAllgather,
			Run:  AllgatherRingNeighbor(j),
		})
	}
	return algos
}

package core

import (
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// Alltoall semantics: every rank holds p blocks of Count bytes at Send
// (block j destined for rank j) and ends with p blocks at Recv (block j
// received from rank j).

// alltoallPeer returns the step-i peer of the pairwise exchange: an XOR
// schedule when p is a power of two (perfect pairing), the shifted
// schedule otherwise (§IV-C.1).
func alltoallPeer(rank, i, p int) int {
	if isPow2(p) {
		return rank ^ i
	}
	return (rank - i + p) % p
}

// AlltoallPairwiseColl (§IV-C.1, "CMA-coll"): the native CMA pairwise
// exchange. Send-buffer addresses are allgathered once; in step i each
// rank reads its block straight from the step peer's send buffer. Every
// step pairs distinct processes, so there is no lock contention. A final
// barrier guarantees every peer has finished reading this rank's send
// buffer.
//
//	T = T^sm_allgather + (p−1)(α + ηβ + l·⌈η/s⌉) + T_barrier
func AlltoallPairwiseColl(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "alltoall:pairwise-cma-coll", a)
	defer rec.End(span)
	p := r.Size()
	if !a.InPlace {
		r.LocalCopy(a.Recv+kernel.Addr(int64(r.ID)*a.Count), a.Send+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	}
	addrs := r.Allgather64(int64(a.Send))
	for i := 1; i < p; i++ {
		peer := alltoallPeer(r.ID, i, p)
		collStep(r, i, peer)
		// Read the block peer addressed to us.
		r.VMRead(a.Recv+kernel.Addr(int64(peer)*a.Count), peer,
			kernel.Addr(addrs[peer])+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	}
	r.Barrier()
}

// AlltoallPairwisePt2pt ("CMA-pt2pt"): the same pairwise schedule built
// from point-to-point transfers, so every step above the rendezvous
// threshold pays an RTS/CTS handshake — the control-message overhead the
// native collective eliminates.
func AlltoallPairwisePt2pt(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "alltoall:pairwise-cma-pt2pt", a)
	defer rec.End(span)
	p := r.Size()
	if !a.InPlace {
		r.LocalCopy(a.Recv+kernel.Addr(int64(r.ID)*a.Count), a.Send+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	}
	for i := 1; i < p; i++ {
		var sendTo, recvFrom int
		if isPow2(p) {
			sendTo = r.ID ^ i
			recvFrom = sendTo
		} else {
			sendTo = (r.ID + i) % p
			recvFrom = (r.ID - i + p) % p
		}
		r.Sendrecv(sendTo, a.Send+kernel.Addr(int64(sendTo)*a.Count), a.Count,
			recvFrom, a.Recv+kernel.Addr(int64(recvFrom)*a.Count), a.Count)
	}
}

// AlltoallPairwiseShm ("SHMEM"): the pairwise schedule through the
// two-copy shared-memory transport at every size.
func AlltoallPairwiseShm(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "alltoall:pairwise-shmem", a)
	defer rec.End(span)
	p := r.Size()
	if !a.InPlace {
		r.LocalCopy(a.Recv+kernel.Addr(int64(r.ID)*a.Count), a.Send+kernel.Addr(int64(r.ID)*a.Count), a.Count)
	}
	for i := 1; i < p; i++ {
		var peerS, peerR int
		if isPow2(p) {
			peerS = r.ID ^ i
			peerR = peerS
		} else {
			peerS = (r.ID + i) % p
			peerR = (r.ID - i + p) % p
		}
		r.SendrecvShm(peerS, a.Send+kernel.Addr(int64(peerS)*a.Count), a.Count,
			peerR, a.Recv+kernel.Addr(int64(peerR)*a.Count), a.Count)
	}
}

// AlltoallBruck (§IV-C.2): Bruck's log-step algorithm. Blocks are first
// rotated locally, then in step 2^k every rank packs the blocks whose
// index has bit k set, ships them to rank+2^k, and unpacks what arrives
// from rank−2^k; a final rotation restores rank order. The extra packing
// copies make it lose above small sizes — exactly the paper's point.
func AlltoallBruck(r *mpi.Rank, a Args) {
	a.validate(r)
	rec, span := beginColl(r, "alltoall:bruck", a)
	defer rec.End(span)
	p := r.Size()
	me := r.ID
	if p == 1 {
		if !a.InPlace {
			r.LocalCopy(a.Recv, a.Send, a.Count)
		}
		return
	}
	// Working buffer holds the rotated blocks; staging buffers hold the
	// packed selections.
	work := r.Alloc(int64(p) * a.Count)
	stageOut := r.Alloc(int64((p+1)/2) * a.Count)
	stageIn := r.Alloc(int64((p+1)/2) * a.Count)

	// Phase 1: local rotation: work[j] = Send[(j+me) mod p]. Each loop
	// of block copies is one run of stepped copies (kernel.Blocks).
	b := r.Blocks()
	for j := 0; j < p; j++ {
		b.Add(work+kernel.Addr(int64(j)*a.Count), a.Send+kernel.Addr(int64((j+me)%p)*a.Count), a.Count)
	}
	b.Run()
	// Phase 2: log steps.
	for pow := 1; pow < p; pow <<= 1 {
		sendTo := (me + pow) % p
		recvFrom := (me - pow + p) % p
		// Pack blocks with bit `pow` set.
		var nsel int
		b = r.Blocks()
		for j := 0; j < p; j++ {
			if j&pow != 0 {
				b.Add(stageOut+kernel.Addr(int64(nsel)*a.Count), work+kernel.Addr(int64(j)*a.Count), a.Count)
				nsel++
			}
		}
		b.Run()
		nrecv := 0
		for j := 0; j < p; j++ {
			if j&pow != 0 {
				nrecv++
			}
		}
		r.Sendrecv(sendTo, stageOut, int64(nsel)*a.Count, recvFrom, stageIn, int64(nrecv)*a.Count)
		// Unpack into the same block positions.
		var u int
		b = r.Blocks()
		for j := 0; j < p; j++ {
			if j&pow != 0 {
				b.Add(work+kernel.Addr(int64(j)*a.Count), stageIn+kernel.Addr(int64(u)*a.Count), a.Count)
				u++
			}
		}
		b.Run()
	}
	// Phase 3: inverse rotation with reversal: Recv[j] = work[(me-j+p) mod p].
	b = r.Blocks()
	for j := 0; j < p; j++ {
		b.Add(a.Recv+kernel.Addr(int64(j)*a.Count), work+kernel.Addr(int64((me-j+p)%p)*a.Count), a.Count)
	}
	b.Run()
}

// AlltoallAlgorithms returns the registered Alltoall implementations.
func AlltoallAlgorithms() []Algorithm {
	return []Algorithm{
		{Name: "pairwise-cma-coll", Kind: KindAlltoall, Run: AlltoallPairwiseColl},
		{Name: "pairwise-cma-pt2pt", Kind: KindAlltoall, Run: AlltoallPairwisePt2pt},
		{Name: "pairwise-shmem", Kind: KindAlltoall, Run: AlltoallPairwiseShm},
		{Name: "bruck", Kind: KindAlltoall, Run: AlltoallBruck},
	}
}

package core

import (
	"camc/internal/kernel"
	"camc/internal/mpi"
)

// Baseline algorithms: the classic point-to-point-based collectives that
// state-of-the-art MPI libraries run intra-node. They move data through
// Rank.Send/Recv (eager shared memory below the rendezvous threshold,
// RTS/CTS + CMA above — "CMA-pt2pt") or, in the *Shm variants, through
// the two-copy path at every size. The comparator library models in
// internal/libs are assembled from these, and the tuned selector uses the
// shared-memory ones where kernel assistance does not pay off.

// Transport selects how baseline collectives move bytes.
type Transport int

// Transport values.
const (
	// TransportPt2pt uses the library point-to-point path: eager shared
	// memory for small messages, RTS/CTS + CMA rendezvous for large.
	TransportPt2pt Transport = iota
	// TransportShm forces the two-copy shared-memory path at all sizes.
	TransportShm
)

func (tr Transport) send(r *mpi.Rank, dst int, addr kernel.Addr, n int64) {
	if tr == TransportShm {
		r.SendShm(dst, addr, n)
	} else {
		r.Send(dst, addr, n)
	}
}

func (tr Transport) recv(r *mpi.Rank, src int, addr kernel.Addr, n int64) {
	if tr == TransportShm {
		r.RecvShm(src, addr, n)
	} else {
		r.Recv(src, addr, n)
	}
}

func (tr Transport) sendrecv(r *mpi.Rank, dst int, sa kernel.Addr, sn int64, src int, ra kernel.Addr, rn int64) {
	if tr == TransportShm {
		r.SendrecvShm(dst, sa, sn, src, ra, rn)
	} else {
		r.Sendrecv(dst, sa, sn, src, ra, rn)
	}
}

// name returns the transport's trace label.
func (tr Transport) name() string {
	if tr == TransportShm {
		return "shm"
	}
	return "pt2pt"
}

// lowbit returns the lowest set bit of v (v > 0).
func lowbit(v int) int { return v & -v }

// ScatterBinomial is the classic binomial-tree scatter over point-to-
// point transfers: interior nodes stage their whole subtree's data, so
// messages shrink as they descend the tree. This is what MVAPICH2-style
// libraries run for large scatter.
func ScatterBinomial(tr Transport) func(r *mpi.Rank, a Args) {
	name := "scatter:binomial-" + tr.name()
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		rel := relRank(r.ID, a.Root, p)
		if p == 1 {
			if !a.InPlace {
				r.LocalCopy(a.Recv, a.Send, a.Count)
			}
			return
		}
		// Subtree size: lowbit(rel) for non-roots, the whole comm for root.
		var cnt int // blocks this node is responsible for (relative blocks rel..rel+cnt-1)
		if rel == 0 {
			cnt = p
		} else {
			cnt = lowbit(rel)
			if p-rel < cnt {
				cnt = p - rel
			}
		}
		// Staging buffer in relative block order. The root rotates its
		// send buffer into it (free if root == 0: the buffer is already
		// in relative order then, but we keep the general path simple
		// and skip the copy only in that case).
		var tmp kernel.Addr
		if rel == 0 {
			if a.Root == 0 {
				tmp = a.Send
			} else {
				tmp = r.Alloc(int64(p) * a.Count)
				for j := 0; j < p; j++ {
					r.LocalCopy(tmp+kernel.Addr(int64(j)*a.Count),
						a.Send+kernel.Addr(int64(absRank(j, a.Root, p))*a.Count), a.Count)
				}
			}
		} else {
			if cnt == 1 {
				tmp = a.Recv // leaf: receive straight into place
			} else {
				tmp = r.Alloc(int64(cnt) * a.Count)
			}
			parent := rel - lowbit(rel)
			tr.recv(r, absRank(parent, a.Root, p), tmp, int64(cnt)*a.Count)
		}
		// Send subtree halves to children: masks below my lowbit (root:
		// below the top power of two).
		top := lowbit(rel)
		if rel == 0 {
			top = 1
			for top < p {
				top <<= 1
			}
		}
		for mask := top >> 1; mask >= 1; mask >>= 1 {
			child := rel + mask
			if child >= p || mask >= cnt {
				continue
			}
			ccnt := cnt - mask
			if ccnt > mask {
				ccnt = mask
			}
			tr.send(r, absRank(child, a.Root, p), tmp+kernel.Addr(int64(mask)*a.Count), int64(ccnt)*a.Count)
		}
		// My own block is relative block rel = tmp[0].
		if tmp != a.Recv && !(rel == 0 && a.InPlace) {
			r.LocalCopy(a.Recv, tmp, a.Count)
		}
	}
}

// GatherBinomial is the classic binomial-tree gather: leaves send their
// block up; interior nodes accumulate their subtree before forwarding.
func GatherBinomial(tr Transport) func(r *mpi.Rank, a Args) {
	name := "gather:binomial-" + tr.name()
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		rel := relRank(r.ID, a.Root, p)
		if p == 1 {
			if !a.InPlace {
				r.LocalCopy(a.Recv, a.Send, a.Count)
			}
			return
		}
		var cnt int
		if rel == 0 {
			cnt = p
		} else {
			cnt = lowbit(rel)
			if p-rel < cnt {
				cnt = p - rel
			}
		}
		var tmp kernel.Addr
		if rel == 0 && a.Root == 0 {
			tmp = a.Recv
		} else if cnt == 1 {
			tmp = a.Send
		} else {
			tmp = r.Alloc(int64(cnt) * a.Count)
		}
		// Stage our own block at relative position 0. With InPlace at the
		// root, the block is already at Recv[root].
		own := a.Send
		if r.ID == a.Root && a.InPlace {
			own = a.Recv + kernel.Addr(int64(a.Root)*a.Count)
		}
		if cnt > 1 && tmp != a.Recv {
			r.LocalCopy(tmp, own, a.Count)
		} else if rel == 0 && a.Root == 0 && !a.InPlace {
			r.LocalCopy(a.Recv, a.Send, a.Count)
		}
		// Receive children's subtrees, smallest mask first (mirrors the
		// scatter send order reversed).
		top := lowbit(rel)
		if rel == 0 {
			top = 1
			for top < p {
				top <<= 1
			}
		}
		for mask := 1; mask < top; mask <<= 1 {
			child := rel + mask
			if child >= p || mask >= cnt {
				continue
			}
			ccnt := cnt - mask
			if ccnt > mask {
				ccnt = mask
			}
			tr.recv(r, absRank(child, a.Root, p), tmp+kernel.Addr(int64(mask)*a.Count), int64(ccnt)*a.Count)
		}
		if rel != 0 {
			parent := rel - lowbit(rel)
			tr.send(r, absRank(parent, a.Root, p), tmp, int64(cnt)*a.Count)
			return
		}
		// Root: unrotate into absolute rank order unless already there.
		if a.Root != 0 {
			for j := 0; j < p; j++ {
				r.LocalCopy(a.Recv+kernel.Addr(int64(absRank(j, a.Root, p))*a.Count),
					tmp+kernel.Addr(int64(j)*a.Count), a.Count)
			}
		}
	}
}

// BcastBinomial is the classic binomial-tree broadcast over point-to-
// point transfers (the small/medium-message choice in every library).
func BcastBinomial(tr Transport) func(r *mpi.Rank, a Args) {
	name := "bcast:binomial-" + tr.name()
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		rel := relRank(r.ID, a.Root, p)
		buf := bcastBuf(r, a)
		if rel != 0 {
			parent := rel - lowbit(rel)
			tr.recv(r, absRank(parent, a.Root, p), buf, a.Count)
		}
		top := lowbit(rel)
		if rel == 0 {
			top = 1
			for top < p {
				top <<= 1
			}
		}
		for mask := top >> 1; mask >= 1; mask >>= 1 {
			child := rel + mask
			if child < p {
				tr.send(r, absRank(child, a.Root, p), buf, a.Count)
			}
		}
	}
}

// AllgatherRing is the classic ring allgather over point-to-point
// transfers: in step i every rank passes the block it received in step
// i−1 to its successor.
func AllgatherRing(tr Transport) func(r *mpi.Rank, a Args) {
	name := "allgather:ring-" + tr.name()
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		me := r.ID
		if !a.InPlace {
			r.LocalCopy(a.Recv+kernel.Addr(int64(me)*a.Count), a.Send, a.Count)
		}
		next := (me + 1) % p
		prev := (me - 1 + p) % p
		for i := 0; i < p-1; i++ {
			sblk := (me - i + p) % p
			rblk := (me - i - 1 + 2*p) % p
			tr.sendrecv(r, next, a.Recv+kernel.Addr(int64(sblk)*a.Count), a.Count,
				prev, a.Recv+kernel.Addr(int64(rblk)*a.Count), a.Count)
		}
	}
}

// BcastVanDeGeijn is the large-message broadcast used by the comparator
// libraries: a binomial scatter of chunks followed by a ring allgather,
// all over point-to-point transfers (two-copy or pt2pt-CMA), i.e. the
// same Van de Geijn structure as BcastScatterAllgather but without the
// native CMA data path.
func BcastVanDeGeijn(tr Transport) func(r *mpi.Rank, a Args) {
	name := "bcast:vandegeijn-" + tr.name()
	return func(r *mpi.Rank, a Args) {
		a.validate(r)
		rec, span := beginColl(r, name, a)
		defer rec.End(span)
		p := r.Size()
		buf := bcastBuf(r, a)
		if p == 1 {
			return
		}
		chunk := (a.Count + int64(p) - 1) / int64(p)
		// Scatter chunks with a binomial tree in relative space. Chunk i
		// (relative) lives at offset i·chunk of buf everywhere.
		rel := relRank(r.ID, a.Root, p)
		chunkRange := func(lo, n int) (kernel.Addr, int64) {
			off := int64(lo) * chunk
			if off >= a.Count {
				return 0, 0
			}
			end := int64(lo+n) * chunk
			if end > a.Count {
				end = a.Count
			}
			return kernel.Addr(off), end - off
		}
		cnt := p
		if rel != 0 {
			cnt = lowbit(rel)
			if p-rel < cnt {
				cnt = p - rel
			}
			parent := rel - lowbit(rel)
			off, n := chunkRange(rel, cnt)
			if n > 0 {
				tr.recv(r, absRank(parent, a.Root, p), buf+off, n)
			}
		}
		top := lowbit(rel)
		if rel == 0 {
			top = 1
			for top < p {
				top <<= 1
			}
		}
		for mask := top >> 1; mask >= 1; mask >>= 1 {
			child := rel + mask
			if child >= p || mask >= cnt {
				continue
			}
			ccnt := cnt - mask
			if ccnt > mask {
				ccnt = mask
			}
			off, n := chunkRange(child, ccnt)
			if n > 0 {
				tr.send(r, absRank(child, a.Root, p), buf+off, n)
			}
		}
		// Ring allgather of the chunks in relative space.
		nextRel := (rel + 1) % p
		prevRel := (rel - 1 + p) % p
		next := absRank(nextRel, a.Root, p)
		prev := absRank(prevRel, a.Root, p)
		for i := 0; i < p-1; i++ {
			sblk := (rel - i + p) % p
			rblk := (rel - i - 1 + 2*p) % p
			// Zero-length chunks (Count < p) still exchange an empty
			// message so both sides of every pair stay aligned.
			soff, sn := chunkRange(sblk, 1)
			roff, rn := chunkRange(rblk, 1)
			tr.sendrecv(r, next, buf+soff, sn, prev, buf+roff, rn)
		}
	}
}

// AlltoallPairwise returns the pairwise exchange over the chosen
// transport (the pt2pt version is AlltoallPairwisePt2pt; this generalizes
// it for the comparator libraries).
func AlltoallPairwise(tr Transport) func(r *mpi.Rank, a Args) {
	if tr == TransportShm {
		return AlltoallPairwiseShm
	}
	return AlltoallPairwisePt2pt
}

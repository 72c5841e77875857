package shm

// Control collectives over the shared-memory transport. These are the
// T^sm_<coll> building blocks of the paper's cost model: every native CMA
// collective starts by moving buffer addresses (8 bytes) or 0-byte
// completion notifications through shared memory.
//
// Bcast64 uses a binomial tree (⌈log2 p⌉ rounds); Gather64 is flat
// (non-roots post concurrently, the root drains); Allgather64 is a
// gather to rank 0 followed by a broadcast of the packed vector; Barrier
// is a dissemination barrier. All are correct for any process count and
// any root.

import (
	"fmt"

	"camc/internal/sim"
	"camc/internal/trace"
)

// Tag space: the control collectives use tags far above the range the
// point-to-point layer and the CMA collectives use, so one communicator
// can interleave them safely.
const (
	tagCollBase = 1 << 20
	tagBcast    = tagCollBase + iota
	tagGather
	tagAllgather
	tagBarrier
	tagNotify
)

// Bcast64 broadcasts an 8-byte value from root via a binomial tree and
// returns the value at every rank.
func (t *Transport) Bcast64(sp *sim.Proc, me, root int, val int64) int64 {
	p := t.nranks
	if p == 1 {
		return val
	}
	rel := (me - root + p) % p // relative rank: root is 0
	// Find this rank's parent: clear the highest set bit.
	if rel != 0 {
		mask := 1
		for mask <= rel {
			mask <<= 1
		}
		mask >>= 1
		parent := (rel - mask + root) % p
		val = t.RecvCtl(sp, parent, me, tagBcast)
	}
	// Forward to children: rel+2^k for 2^k > rel.
	mask := 1
	for mask <= rel {
		mask <<= 1
	}
	for ; rel+mask < p; mask <<= 1 {
		child := (rel + mask + root) % p
		t.SendCtl(sp, me, child, tagBcast, val)
	}
	return val
}

// Gather64 gathers one 8-byte value per rank to root. At root the result
// has one entry per rank (indexed by rank); other ranks get nil.
func (t *Transport) Gather64(sp *sim.Proc, me, root int, val int64) []int64 {
	p := t.nranks
	if me != root {
		t.SendCtl(sp, me, root, tagGather, val)
		return nil
	}
	out := make([]int64, p)
	out[root] = val
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		out[r] = t.RecvCtl(sp, r, root, tagGather)
	}
	return out
}

// ctlVecThreshold is the rank count above which Allgather64 switches
// from p chained control messages per tree edge to one bulk vector
// message per edge. The chained form costs O(p) simulated events per
// edge — O(p²) for the whole tree — which is what capped runs at a few
// thousand ranks; the bulk form keeps the same serialized posting cost
// (p·ctlCost at the sender) in O(1) events per edge. Every experiment
// and golden file at or below this rank count sees the chained path,
// bit-identical to the pre-threshold behaviour.
const ctlVecThreshold = 512

// Allgather64 gathers one 8-byte value per rank and distributes the full
// vector to every rank: a gather to rank 0 followed by a binomial
// broadcast of the packed vector. At or below ctlVecThreshold ranks each
// tree edge carries p chained control messages (the vector is tiny
// compared to any data message, but the cost should still scale with p);
// above it each edge is one bulk message whose posting cost is the same
// serialized p·ctlCost.
//
// Above the threshold the returned slice is shared read-only between
// ranks (a 64k-rank exchange would otherwise materialize p² host
// entries); callers must not mutate it.
func (t *Transport) Allgather64(sp *sim.Proc, me int, val int64) []int64 {
	p := t.nranks
	out := t.Gather64(sp, me, 0, val)
	if p == 1 {
		return out
	}
	bulk := p > ctlVecThreshold
	// Broadcast the vector down a binomial tree.
	rel := me
	if rel != 0 {
		mask := 1
		for mask <= rel {
			mask <<= 1
		}
		mask >>= 1
		parent := rel - mask
		if bulk {
			out = t.recvCtlVec(sp, parent, me, tagAllgather, p)
		} else {
			out = make([]int64, p)
			for i := 0; i < p; i++ {
				out[i] = t.RecvCtl(sp, parent, me, tagAllgather)
			}
		}
	}
	mask := 1
	for mask <= rel {
		mask <<= 1
	}
	for ; rel+mask < p; mask <<= 1 {
		child := rel + mask
		if bulk {
			t.sendCtlVec(sp, me, child, tagAllgather, out)
		} else {
			for i := 0; i < p; i++ {
				t.SendCtl(sp, me, child, tagAllgather, out[i])
			}
		}
	}
	return out
}

// sendCtlVec posts an n-entry control vector as one message, costed as n
// chained control posts at the sender (the serialized cost the chained
// form charges) but consuming one simulator event instead of n.
func (t *Transport) sendCtlVec(sp *sim.Proc, src, dst, tag int, vals []int64) {
	sp.Sleep(float64(len(vals)) * ctlCost)
	t.sendMsg(sp, src, dst, message{
		tag:     tag,
		readyAt: sp.Now() + t.node.Arch.ShmLatency + t.stall(src, dst),
		vec:     vals,
	})
}

// recvCtlVec consumes one bulk control vector from src, asserting the
// expected tag and length.
func (t *Transport) recvCtlVec(sp *sim.Proc, src, dst, tag, n int) []int64 {
	waitStart := sp.Now()
	m := t.recvMsg(sp, src, dst)
	if m.tag != tag {
		panic(fmt.Sprintf("shm: tag mismatch on %d->%d: got %d, want %d", src, dst, m.tag, tag))
	}
	if len(m.vec) != n {
		panic(fmt.Sprintf("shm: expected %d-entry control vector on %d->%d, got %d", n, src, dst, len(m.vec)))
	}
	readyTs := sp.Now()
	if m.readyAt > readyTs {
		readyTs = m.readyAt
		sp.Sleep(m.readyAt - sp.Now())
	}
	sp.Sleep(ctlCost)
	if rec := t.node.Recorder(); rec != nil {
		rec.Edge(t.lane(src), t.lane(dst), trace.CatShm, tagName(tag),
			m.readyAt-t.node.Arch.ShmLatency, readyTs, waitStart, sp.Now())
	}
	return m.vec
}

// Notify posts a 0-byte completion message to dst.
func (t *Transport) Notify(sp *sim.Proc, me, dst int) {
	t.SendCtl(sp, me, dst, tagNotify, 0)
}

// WaitNotify consumes one 0-byte completion message from src.
func (t *Transport) WaitNotify(sp *sim.Proc, src, me int) {
	t.RecvCtl(sp, src, me, tagNotify)
}

// Barrier is a dissemination barrier: ⌈log2 p⌉ rounds, in round k each
// rank signals (me+2^k) mod p and waits for (me−2^k) mod p.
func (t *Transport) Barrier(sp *sim.Proc, me int) {
	p := t.nranks
	for dist := 1; dist < p; dist <<= 1 {
		to := (me + dist) % p
		from := (me - dist + p) % p
		t.SendCtl(sp, me, to, tagBarrier, 0)
		t.RecvCtl(sp, from, me, tagBarrier)
	}
}

// barrierFromZero is Barrier's closed form for the one schedule whose
// outcome is known without running it: every rank enters at t=0, with
// no fault plan (no shm stalls) and no liveness board. All ranks then
// leave at one instant and resume in a fixed order. It returns that
// instant and the rank that resumes first; the others follow in
// rotation order from it.
//
// The exit instant repeats one round's float arithmetic, in Barrier's
// operation order: SendCtl's post, the message's readyAt, and
// RecvCtl's sleep to readyAt plus its consume cost. Every rank sees the
// same round because every rank enters at the same instant.
func (t *Transport) barrierFromZero() (exit sim.Time, first int) {
	p := t.nranks
	lat := t.node.Arch.ShmLatency
	now := 0.0
	rounds := 0
	for dist := 1; dist < p; dist <<= 1 {
		sent := now + ctlCost
		ready := (sent + lat) + 0 // + stall, zero without a fault plan
		now = (sent + (ready - sent)) + ctlCost
		rounds++
	}
	// Barrier's wake order is the rotation starting at rank
	// 2^rounds − 1 (TestBarrierFromZeroMatchesBarrier pins it for every
	// p through 1100).
	return now, (1<<rounds - 1) % p
}

// EnterBarrierFromZero costs a t=0 Barrier entry in closed form (see
// barrierFromZero) instead of exchanging its 2·p·⌈log2 p⌉ control
// messages: the rank sleeps straight to the exit instant. Ranks below
// the first-resuming rank yield once at t=0 first, so their wake-ups
// queue behind the others' and the ranks resume in Barrier's order.
// Every rank of the transport must call it at t=0, in spawn order.
func (t *Transport) EnterBarrierFromZero(sp *sim.Proc, me int) {
	if t.nranks == 1 {
		return
	}
	exit, first := t.barrierFromZero()
	if me < first {
		sp.Yield()
	}
	sp.Sleep(exit)
}

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
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"camc/internal/sim"
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

// ctlVecThreshold is the rank count above which Allgather64's broadcast
// switches from p chained control messages per tree edge to one bulk
// vector message per edge. The chained form costs O(p) simulated events
// per edge — O(p²) for the whole tree; the bulk form keeps the same
// serialized posting cost (p·ctlCost at the sender) in O(1) events per
// edge. Both forms are what the exchange costs in virtual time; on the
// plain path the closed form replays them as arithmetic (allgatherReplay)
// instead of running them as events.
const ctlVecThreshold = 512

// Allgather64 gathers one 8-byte value per rank and distributes the full
// vector to every rank: a gather to rank 0 followed by a binomial
// broadcast of the packed vector. At or below ctlVecThreshold ranks each
// tree edge carries p chained control messages (the vector is tiny
// compared to any data message, but the cost should still scale with p);
// above it each edge is one bulk message whose posting cost is the same
// serialized p·ctlCost.
//
// On the plain path — no trace recorder, no fault plan, no liveness
// board — the exchange is costed in closed form (allgatherClosed): every
// rank leaves at the instant, and resumes in the order, the message
// exchange would give it, with no simulator event for its messages.
// Traced, faulted and liveness runs exchange the messages, because their
// output counts them. TestAllgatherClosedMatchesExchange pins the two
// paths to the bit.
//
// The result is read-only: on the closed-form path, and above
// ctlVecThreshold, every rank of a call receives the same slice.
func (t *Transport) Allgather64(sp *sim.Proc, me int, val int64) []int64 {
	if t.nranks == 1 {
		return []int64{val}
	}
	if t.node.Recorder() == nil && t.node.FaultPlan() == nil && t.node.Liveness() == nil {
		return t.allgatherClosed(sp, me, val)
	}
	return t.allgatherExchange(sp, me, val)
}

// allgatherExchange is Allgather64 run as control messages.
func (t *Transport) allgatherExchange(sp *sim.Proc, me int, val int64) []int64 {
	p := t.nranks
	out := t.Gather64(sp, me, 0, val)
	bulk := p > ctlVecThreshold
	// Broadcast the vector down a binomial tree.
	if me != 0 {
		parent := me - 1<<(bits.Len(uint(me))-1) // clear the highest set bit
		if bulk {
			out = t.recvCtlVec(sp, parent, me, tagAllgather, p)
		} else {
			out = make([]int64, p)
			for i := 0; i < p; i++ {
				out[i] = t.RecvCtl(sp, parent, me, tagAllgather)
			}
		}
	}
	// Children are me+2^k for every 2^k above me, nearest first.
	for mask := 1 << bits.Len(uint(me)); me+mask < p; mask <<= 1 {
		child := me + mask
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

// agRendezvous is a transport's record of the Allgather64 call being
// entered on the closed-form path. It is reused from call to call: the
// last rank to enter consumes it before any rank leaves, so a rank that
// leaves early and enters the next call starts a fresh one. Only out is
// per call, because ranks of this call still hold it after the next
// call opens.
type agRendezvous struct {
	out     []int64     // this call's vector, shared by every rank
	procs   []*sim.Proc // parked ranks, by rank
	entry   []float64   // entry instant, by rank
	origin  []sim.Ref   // the event each rank entered in, and
	mark    []uint64    // the place its first exchange event takes there
	arrived int
}

// allgatherClosed costs Allgather64 in closed form. Each rank records
// its value, its entry instant and the event it entered in, and parks
// without scheduling an event; no rank can leave the real exchange
// before the last one enters, because the root needs every value
// first. The last rank to enter replays the exchange as arithmetic
// (allgatherReplay), registers the replayed events with the simulation
// as a virtual lineage, and wakes every rank, itself included, at its
// last replayed event. The simulation runs each wake exactly where that
// event would have run among the events of its instant (sim.Virtual).
func (t *Transport) allgatherClosed(sp *sim.Proc, me int, val int64) []int64 {
	p := t.nranks
	if p == 1 {
		return []int64{val}
	}
	rv := t.ag
	if rv == nil {
		rv = &agRendezvous{procs: make([]*sim.Proc, p), entry: make([]float64, p),
			origin: make([]sim.Ref, p), mark: make([]uint64, p)}
		t.ag = rv
	}
	if rv.arrived == 0 {
		rv.out = make([]int64, p)
		sp.OpenVirtual()
	}
	out := rv.out
	out[me] = val
	rv.entry[me] = sp.Now()
	rv.origin[me], rv.mark[me] = sp.Origin()
	rv.procs[me] = sp
	if rv.arrived++; rv.arrived == p {
		rv.arrived, rv.out = 0, nil
		x := replayPool.Get().(*allgatherReplay)
		x.src = sp.AddVirtual(x, p)
		x.run(sp, p, t.node.Arch.ShmLatency, rv)
		for r, q := range rv.procs {
			q.WakeVirtual(x.src, finalRef(r))
		}
		clear(rv.procs)
	}
	sp.Park("allgather64")
	return out
}

// finalRef names rank r's last replayed event to the simulation.
func finalRef(r int) int32 { return -1 - int32(r) }

// replayPool recycles replay scratch across transports: measure builds
// a communicator per cell, and the scratch is sized by rank count.
var replayPool = sync.Pool{New: func() any { return new(allgatherReplay) }}

// allgatherReplay replays allgatherExchange on the plain path as
// arithmetic: no coroutine, no channel, no simulator event. It computes
// every simulator event the exchange would dispatch, with each Sleep's
// now+d arithmetic in the operation order of SendCtl, RecvCtl,
// sendCtlVec and recvCtlVec, and the event that scheduled each one.
//
// Gather64 at the root is a fold over the entry instants: rank r posts
// its value one ctlCost after it enters, and the root takes the posts
// in rank order, waking at a post it has not reached yet. A post at the
// very instant the root asks for it is queued or hands off by which of
// the two events ran first, which the simulation answers (Proc.Before).
// Every other rank then waits on its broadcast parent, which cannot send
// before the root has every value, so the broadcast is a function of the
// instant the root's gather ends.
//
// In the broadcast every rank's events form one chain, each event
// scheduled by the one before it, except the first: the parent's first
// post to the rank hands the message to it and wakes it at the post
// instant. The chain's instants follow from the parent's post instants
// alone, because every later message is posted strictly before the rank
// asks for it (asserted), so no tie between events decides a wait. The
// chains are computed rank by rank, parents first, each contiguous in
// one array.
//
// Ties decide only the order. Exits at one instant tie often — at 160
// ranks, up to 18 ranks share one — and settle orders them once, so
// that the simulation compares two of this exchange's wakes in O(1)
// (Before).
type allgatherReplay struct {
	src   int32     // the lineage's name in the simulation
	ev    []float64 // event instants
	par   []int32   // each event's scheduler: an event, or −1−r for rank r's entry
	kind  []uint8   // each event's place among its scheduler's children
	first []int32   // index of each rank's first broadcast event (the root's: its gather end)
	pos   []int32   // each rank's place in exit order
	order []int32   // ranks in exit order
	pops  []float64 // a chain's consume-end instants, for the queue-depth check
	walk  []agWalker
	// The entries, copied: a rank that leaves early may enter the
	// transport's next call while these events are still compared.
	entry  []float64
	origin []sim.Ref
	mark   []uint64
	lines  []float64 // ranks' lines, built on first use (Line)
	line   []agLine
}

// agLine is one rank's line in allgatherReplay.lines.
type agLine struct {
	off, n  int32 // n = 0 until built
	entered int32 // the rank whose entry the line leaves from
}

// Event kinds, by the place they take among their scheduler's children.
const (
	agHandOff uint8 = iota // a post's hand-off wake, before the post's own next event
	agNext                 // a process's next event
	agEntered              // the first event of a rank, scheduled in the event it entered in
)

// add appends an event and returns its index.
func (x *allgatherReplay) add(t float64, par int32, kind uint8) int32 {
	x.ev = append(x.ev, t)
	x.par = append(x.par, par)
	x.kind = append(x.kind, kind)
	return int32(len(x.ev) - 1)
}

// Event implements sim.Virtual.
func (x *allgatherReplay) Event(i int32) (sim.Time, sim.Ref, uint64) {
	if i < 0 {
		i = x.end(int(-1 - i))
	}
	par := x.par[i]
	if par < 0 {
		r := -1 - par
		return x.ev[i], x.origin[r], x.mark[r]
	}
	return x.ev[i], sim.Ref{Src: x.src, I: par}, uint64(x.kind[i])
}

// Before implements sim.Virtual: two ranks' exits in settled order.
func (x *allgatherReplay) Before(i, j int32) bool {
	return x.pos[-1-i] < x.pos[-1-j]
}

// Line implements sim.Virtual: the instants from rank r's exit back
// through its schedulers to the event a rank entered in.
func (x *allgatherReplay) Line(i int32) ([]sim.Time, sim.Ref) {
	r := -1 - i
	if x.line[r].n == 0 {
		off := len(x.lines)
		j := x.end(int(r))
		for ; x.par[j] >= 0; j = x.par[j] {
			x.lines = append(x.lines, x.ev[j])
		}
		e := -1 - x.par[j]
		x.lines = append(x.lines, x.ev[j], x.entry[e])
		x.line[r] = agLine{off: int32(off), n: int32(len(x.lines) - off), entered: e}
	}
	ln := x.line[r]
	return x.lines[ln.off : ln.off+ln.n], x.origin[ln.entered]
}

// Release implements sim.Virtual.
func (x *allgatherReplay) Release() { replayPool.Put(x) }

// run replays one exchange on p ranks whose entries rv holds.
func (x *allgatherReplay) run(sp *sim.Proc, p int, lat float64, rv *agRendezvous) {
	msgs, sendCost := p, ctlCost
	if p > ctlVecThreshold {
		msgs, sendCost = 1, float64(p)*ctlCost
	}
	x.entry = append(x.entry[:0], rv.entry...)
	x.origin = append(x.origin[:0], rv.origin...)
	x.mark = append(x.mark[:0], rv.mark...)
	// At most four gather events per rank, and per rank a hand-off,
	// two events per message received and one per message posted.
	n := (p - 1) * (5 + 3*msgs)
	x.ev, x.par, x.kind = slices.Grow(x.ev[:0], n), slices.Grow(x.par[:0], n), slices.Grow(x.kind[:0], n)
	x.first, x.pos, x.order = resize(x.first, p), resize(x.pos, p), resize(x.order, p)
	x.line, x.lines = resize(x.line, p), x.lines[:0]
	clear(x.line)
	// Gather64: rank r's post (event r−1), then the root's RecvCtl from
	// ranks 1..p−1 in turn.
	for r := 1; r < p; r++ {
		x.add(x.entry[r]+ctlCost, int32(-1-r), agEntered)
	}
	now, cur := x.entry[0], int32(-1) // the root's clock and latest event
	next := func(t float64) {
		if cur < 0 {
			cur = x.add(t, -1, agEntered)
		} else {
			cur = x.add(t, cur, agNext)
		}
	}
	for r := 1; r < p; r++ {
		post, g := x.ev[r-1], int32(r-1)
		if post > now || post == now && !sp.Before(sim.Ref{Src: x.src, I: g}, x.rootRef(cur)) {
			now = post
			cur = x.add(now, g, agHandOff)
		}
		if ready := post + lat; ready > now {
			now += ready - now
			next(now)
		}
		now += ctlCost
		next(now)
	}
	x.first[0] = cur
	for r := 0; r < p; r++ {
		if r > 0 {
			now = x.receive(r, msgs, lat)
		}
		// Post to each child, nearest first: a sleep of sendCost per
		// message, each post an event scheduled by the one before.
		for c := r + 1<<bits.Len(uint(r)); c < p; c += c - r {
			x.first[c] = int32(len(x.ev)) // the hand-off wake's post, until c's chain starts
			for j := 0; j < msgs; j++ {
				now += sendCost
				x.add(now, int32(len(x.ev)-1), agNext)
			}
		}
		x.order[r] = int32(r)
	}
	x.settleAll(p)
}

// rootRef names the root's latest gather event, or the event it
// entered in.
func (x *allgatherReplay) rootRef(cur int32) sim.Ref {
	if cur < 0 {
		return x.origin[0]
	}
	return sim.Ref{Src: x.src, I: cur}
}

// receive appends rank r's receive chain — RecvCtl (recvCtlVec) for
// each of msgs messages from its parent — and returns r's clock at its
// end. The first message is handed to r, parked since the gather, at
// its post instant; every later one must already be queued when r asks
// for it, and the queue must stay below queueDepth, or the chain would
// depend on event order.
func (x *allgatherReplay) receive(r, msgs int, lat float64) float64 {
	link := x.first[r]
	post := x.ev[link : int(link)+msgs]
	now := post[0]
	x.first[r] = x.add(now, link, agHandOff)
	x.pops = x.pops[:0]
	popped := 0 // messages r asked for strictly before post j
	for j, s := range post {
		if j > 0 && !(s < now) {
			panic(fmt.Sprintf("shm: allgather replay: message %d to rank %d posted at %v, not before it is asked for at %v", j, r, s, now))
		}
		// Message k ≥ 1 leaves the queue when r asks for it, at
		// pops[k−1]; at post j the queue holds every k in [1, j) not
		// asked for before it.
		for popped < j-1 && x.pops[popped] < s {
			popped++
		}
		if queued := j - 1 - popped; queued >= queueDepth {
			panic(fmt.Sprintf("shm: allgather replay: %d messages queued to rank %d, queue depth %d", queued, r, queueDepth))
		}
		if ready := s + lat; ready > now {
			now += ready - now
			x.add(now, int32(len(x.ev)-1), agNext)
		}
		now += ctlCost
		x.add(now, int32(len(x.ev)-1), agNext)
		x.pops = append(x.pops, now) // r asks for message j+1 here
	}
	return now
}

// end returns the index of rank r's last event: the chains follow the
// root's in rank order.
func (x *allgatherReplay) end(r int) int32 {
	if r+1 < len(x.first) {
		return x.first[r+1] - 1
	}
	return int32(len(x.ev) - 1)
}

// settleAll orders the ranks' exits — by instant, and within one
// instant the way the simulation would run them — into x.order and
// x.pos.
func (x *allgatherReplay) settleAll(p int) {
	slices.SortFunc(x.order, func(a, b int32) int {
		return cmp.Compare(x.ev[x.end(int(a))], x.ev[x.end(int(b))])
	})
	for lo := 0; lo < p; {
		hi := lo + 1
		for hi < p && x.ev[x.end(int(x.order[hi]))] == x.ev[x.end(int(x.order[lo]))] {
			hi++
		}
		if hi-lo > 1 {
			w := x.walk[:0]
			for _, r := range x.order[lo:hi] {
				w = append(w, agWalker{rank: r, i: x.end(int(r)), r: r})
			}
			x.settle(w)
			for k, v := range w {
				x.order[lo+k] = v.rank
			}
			x.walk = w
		}
		lo = hi
	}
	for k, r := range x.order {
		x.pos[r] = int32(k)
	}
}

// agWalker walks back from one rank's exit event through the events
// that scheduled it.
type agWalker struct {
	rank, i, r int32 // exiting rank; current event and the chain it is on
	woke       bool  // the last step left a chain at its hand-off wake
}

// settle orders walkers w, whose events share one instant, the way the
// simulator runs them: two events of one instant run in the order their
// schedulers ran, so it steps every walker back until their instants
// differ (the earlier line ran first) or two meet at one event (the one
// post scheduled its hand-off wake before its own next event), then
// settles each group of walkers still at one instant the same way. All
// the exits descend from the root's gather end, so the walks never
// reach past it.
func (x *allgatherReplay) settle(w []agWalker) {
	for {
		// Step back along every chain at once while no walker reaches
		// its first event, up to the first step where an instant differs
		// from walker 0's; chains are contiguous, so this is a run of
		// array compares.
		n := int32(math.MaxInt32)
		for _, v := range w {
			n = min(n, v.i-x.first[v.r])
		}
		d := n + 1
		for _, v := range w[1:] {
			a, b := x.ev[v.i-min(d-1, n):v.i], x.ev[w[0].i-min(d-1, n):w[0].i]
			for s := len(a) - 1; s >= 0; s-- {
				if a[s] != b[s] {
					d = int32(len(a) - s)
					break
				}
			}
		}
		if d <= n {
			for k := range w {
				w[k].i -= d
				w[k].woke = false
			}
			break
		}
		crossed := false
		for k := range w {
			w[k].i, w[k].r, w[k].woke = x.back(w[k].i-n, w[k].r)
			crossed = crossed || w[k].woke
		}
		t, split := x.ev[w[0].i], false
		for _, v := range w[1:] {
			if x.ev[v.i] != t {
				split = true
				break
			}
		}
		if split || crossed {
			break
		}
	}
	slices.SortStableFunc(w, func(a, b agWalker) int {
		if c := cmp.Compare(x.ev[a.i], x.ev[b.i]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.i, b.i); c != 0 {
			return c
		}
		switch {
		case a.woke && !b.woke:
			return -1
		case b.woke && !a.woke:
			return 1
		}
		return 0
	})
	// Walkers that met walk on as one, in the order they met in; a group
	// at one event is settled.
	for lo := 0; lo < len(w); {
		hi := lo + 1
		for hi < len(w) && x.ev[w[hi].i] == x.ev[w[lo].i] {
			hi++
		}
		if w[lo].i != w[hi-1].i {
			x.settle(w[lo:hi])
		}
		lo = hi
	}
}

// back steps from event i of rank r's chain to the event that scheduled
// it, reporting whether i was r's hand-off wake.
func (x *allgatherReplay) back(i, r int32) (int32, int32, bool) {
	if i > x.first[r] {
		return i - 1, r, false
	}
	return x.par[i], r - 1<<(bits.Len32(uint32(r))-1), true
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sendCtlVec posts an n-entry control vector as one message, costed as n
// chained control posts at the sender (the serialized cost the chained
// form charges) but consuming one simulator event instead of n.
func (t *Transport) sendCtlVec(sp *sim.Proc, src, dst, tag int, vals []int64) {
	o := t.ctlOp(sp, src, dst, tag, true)
	o.m.vec, o.cost = vals, float64(len(vals))*ctlCost
	t.run(o)
}

// recvCtlVec consumes one bulk control vector from src, asserting the
// expected tag and length.
func (t *Transport) recvCtlVec(sp *sim.Proc, src, dst, tag, n int) []int64 {
	_, vec := t.run(t.ctlOp(sp, dst, src, tag, false))
	if len(vec) != n {
		panic(fmt.Sprintf("shm: expected %d-entry control vector on %d->%d, got %d", n, src, dst, len(vec)))
	}
	return vec
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

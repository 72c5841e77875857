// Package shm implements the shared-memory (two-copy) intra-node
// transport that MPI libraries use alongside kernel-assisted copies.
//
// A message of n bytes is pipelined through fixed-size cells: the sender
// copies each cell from its buffer into the shared region, and the
// receiver copies it out — two memcpys per byte, the cost structure the
// paper contrasts with CMA's single copy. Small 8-byte control messages
// (buffer addresses, RTS/CTS, 0-byte synchronizations) ride the same
// per-pair FIFO queues. Every message is stamped and queued by one post
// and received, checked and waited out by one take; Send, Recv and
// Exchange are one alternating cell pipeline over the two, and SendCtl
// and RecvCtl are runs of one control message. Each such operation is
// one sim.Stepper (op) that the rank hands to SleepSteps, so a
// contended operation costs the rank's coroutine one suspension, not
// one per cell, queue wait or liveness quantum, at the same virtual
// instants and dispatch counts as the blocking calls it replaced.
//
// The package also provides the small-message control collectives the
// native CMA collectives are built from: Bcast64, Gather64, Allgather64,
// Notify/WaitNotify and a dissemination Barrier, corresponding to the
// T^sm_coll terms in the paper's cost model.
package shm

import (
	"fmt"

	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/sim"
	"camc/internal/trace"
)

// ctlCost is the fixed CPU cost to post or consume one control message
// (a few cache-line operations), in microseconds.
const ctlCost = 0.05

// queueDepth is the number of cells in flight per pair before the sender
// stalls (shared-region flow control).
const queueDepth = 32

// message is one queue entry: a control message or a data cell (see take).
type message struct {
	tag     int
	size    int64   // cell bytes (0 on control messages)
	readyAt float64 // virtual time at which the receiver may consume it
	ctl     int64   // control payload for 8-byte messages
	vec     []int64 // bulk control vector (Allgather64 above ctlVecThreshold)
	data    []byte  // staged cell payload (nil on dataless nodes)
	sum     uint64  // staged payload range digest (digest-tracking nodes)
	last    bool    // final cell of a data message
}

// denseQueueLimit is the rank count up to which the per-pair queue
// pointers live in a dense nranks² table. Above it they live in a map: a
// dense 64k-rank table of pointers alone would cost tens of gigabytes
// before the first message moves. Either way a pair's queue is created
// the first time the pair is used.
const denseQueueLimit = 256

// Transport is a shared-memory segment connecting nranks local processes
// with per-ordered-pair FIFO queues. A queue is created on the first
// send or receive between its pair: a collective uses far fewer than
// the nranks² possible pairs (Allgather64's tree uses 2(nranks−1)), so
// building a communicator costs O(nranks) and each operation pays only
// for the pairs it talks over.
type Transport struct {
	node     *kernel.Node
	nranks   int
	queues   []*sim.Chan[message]         // dense, index src*nranks+dst; nil above denseQueueLimit
	lazy     map[int64]*sim.Chan[message] // sparse, keyed src*nranks+dst
	lanes    []int                        // trace lane per rank (nil = identity)
	boardIDs []int                        // liveness board slot per rank (nil = identity)
	ag       *agRendezvous                // closed-form Allgather64 record, built on first use
}

// New creates a transport among nranks processes of node. It creates no
// queue.
func New(node *kernel.Node, nranks int) *Transport {
	t := &Transport{node: node, nranks: nranks}
	if nranks <= denseQueueLimit {
		t.queues = make([]*sim.Chan[message], nranks*nranks)
	} else {
		t.lazy = make(map[int64]*sim.Chan[message])
	}
	return t
}

// SetLanes maps this transport's rank indices to trace lanes. A
// transport built for a shrunk communicator renumbers its ranks from 0,
// but each surviving process keeps the trace lane it was registered
// under — without the mapping, one lane would interleave events from
// two different processes and the per-lane span nesting would be
// garbage.
func (t *Transport) SetLanes(lanes []int) {
	if len(lanes) != t.nranks {
		panic(fmt.Sprintf("shm: SetLanes with %d lanes for %d ranks", len(lanes), t.nranks))
	}
	t.lanes = lanes
}

// lane returns the trace lane for rank i (identity when no mapping is
// set, i.e. for a communicator whose rank IDs are the registered lanes).
func (t *Transport) lane(i int) int {
	if t.lanes == nil {
		return i
	}
	return t.lanes[i]
}

// SetBoardIDs maps this transport's rank indices to liveness-board
// slots. A single-node board is indexed by local rank (identity, the
// default); in a cluster each node's board is the node's *world-sized
// view*, so local waits must beat, interrogate, and mark slots by world
// rank — that way a remote death merged in over the fabric revokes
// intra-node waits exactly like a local one.
func (t *Transport) SetBoardIDs(ids []int) {
	if ids != nil && len(ids) != t.nranks {
		panic(fmt.Sprintf("shm: SetBoardIDs with %d ids for %d ranks", len(ids), t.nranks))
	}
	t.boardIDs = ids
}

// bid returns the liveness-board slot for rank i.
func (t *Transport) bid(i int) int {
	if t.boardIDs == nil {
		return i
	}
	return t.boardIDs[i]
}

func (t *Transport) queue(src, dst int) *sim.Chan[message] {
	if src < 0 || src >= t.nranks || dst < 0 || dst >= t.nranks {
		panic(fmt.Sprintf("shm: rank out of range: %d -> %d (nranks %d)", src, dst, t.nranks))
	}
	// Creation order varies with the schedule, but a fresh queue holds
	// no state and channel identity never feeds the event order, so
	// determinism is unaffected.
	if t.queues != nil {
		i := src*t.nranks + dst
		if t.queues[i] == nil {
			t.queues[i] = sim.NewChan[message](t.node.Sim, queueDepth)
		}
		return t.queues[i]
	}
	key := int64(src)*int64(t.nranks) + int64(dst)
	q := t.lazy[key]
	if q == nil {
		q = sim.NewChan[message](t.node.Sim, queueDepth)
		t.lazy[key] = q
	}
	return q
}

// tagName maps the transport's well-known tags — including the pt2pt
// protocol tags internal/mpi layers on top (100 eager, 101 RTS,
// 102 FIN) — to stable trace-event names.
func tagName(tag int) string {
	switch tag {
	case 100:
		return "eager"
	case 101:
		return "rts"
	case 102:
		return "fin"
	case tagBcast:
		return "bcast64"
	case tagGather:
		return "gather64"
	case tagAllgather:
		return "allgather64"
	case tagBarrier:
		return "barrier"
	case tagNotify:
		return "notify"
	}
	return fmt.Sprintf("tag%d", tag)
}

// stall returns the injected extra visibility delay for a cell staged
// src -> dst (a delayed cache-line flush under the fault plan), emitting
// the trace instant when one fires. Zero without an active plan.
func (t *Transport) stall(src, dst int) float64 {
	d := t.node.FaultPlan().ShmStall(src, dst)
	if d > 0 {
		if rec := t.node.Recorder(); rec != nil {
			rec.Instant(t.lane(src), trace.CatFault, "fault_shm_stall",
				trace.F("peer", float64(t.lane(dst))), trace.F("delay", d))
		}
	}
	return d
}

// An operation's liveness wait, under board b: each quantum the
// waiting rank re-publishes its own heartbeat, then attempts a timed
// post or take of one message; one that completes in time does so at
// its exact instant (the timed wait cancels its deadline event
// unprocessed), so healthy runs are latency-identical to board-less
// ones. A post waits only while dst's queue is full (a dead receiver
// never drains its cells).
//
// A quantum that ends empty-handed while *any* rank is marked dead
// aborts the wait — ULFM-style revocation. The direct peer may be
// perfectly alive but already aborted out of the doomed collective
// (it observed the death first and will never send or drain); waiting
// the full Deadline on it would then falsely declare a survivor dead,
// and the false positive would cascade through the agreement round.
// After a full Deadline with nothing moved and nothing on the board,
// the awaited peer is declared dead — but only if its heartbeat is also
// a full Deadline stale (Board.Stale). A fresh heartbeat means the peer
// is alive and merely blocked elsewhere, typically on the actually-dead
// rank whose own waiter expires at the same instant; the waiter then
// keeps polling until that true death lands on the board and revocation
// ends the wait. Either way a failed wait ends the operation, and the
// rank raises a *liveness.PeerDeadError, which the MPI layer recovers
// at the protected-collective boundary — collectives in internal/core
// need no error plumbing.

// quantum starts one Poll-sized quantum of the wait to post (or take)
// o.m, cut short at the wait's deadline.
func (o *op) quantum(post bool) sim.Time {
	cfg := o.b.Config()
	o.b.Beat(o.t.bid(o.me))
	wait := cfg.Poll
	if r := o.deadline - o.sp.Now(); r > 0 && r < wait {
		wait = r
	}
	if post {
		if o.qout.SendTimeoutStep(o.sp, &o.m, wait) {
			return o.posted()
		}
		o.phase = phAwaitPost
	} else {
		if o.qin.RecvTimeoutStep(o.sp, &o.m, wait) {
			return o.taken()
		}
		o.phase = phAwaitTake
	}
	return sim.StepPark
}

// missed follows a quantum that ended with nothing moved to or from
// peer: it ends the operation if a rank is dead, declaring peer dead
// first once the whole deadline has passed with its heartbeat stale,
// and otherwise starts the next quantum.
func (o *op) missed(peer int, post bool) sim.Time {
	b := o.b
	dead := b.AnyDead()
	if d := b.Config().Deadline; !dead && o.sp.Now() >= o.deadline && b.Stale(o.t.bid(peer), d) {
		b.MarkDead(o.t.bid(peer))
		dead = true
	}
	if !dead {
		return o.quantum(post)
	}
	if rec := o.t.node.Recorder(); rec != nil {
		o.t.traceDead(rec, o.me, peer, post)
	}
	o.fail = failDead
	return sim.StepDone
}

// traceDead traces rank self's detection of a death while waiting to
// post to (or take from) peer.
func (t *Transport) traceDead(rec *trace.Recorder, self, peer int, post bool) {
	op := "recv"
	if post {
		op = "send"
	}
	rec.Instant(t.lane(self), trace.CatLiveness, "peer_dead_"+op,
		trace.F("peer", float64(t.lane(peer))))
}

// post stamps o.m with the instant its receiver may consume it — one
// ShmLatency from now, plus any injected stall — and queues it from
// o.me to o.out.peer; every message leaves through it.
func (o *op) post() sim.Time {
	t := o.t
	o.m.readyAt = o.sp.Now() + t.node.Arch.ShmLatency + t.stall(o.me, o.out.peer)
	if o.b = t.node.Liveness(); o.b != nil {
		o.deadline = o.sp.Now() + o.b.Config().Deadline
		return o.quantum(true)
	}
	if !o.qout.SendStep(o.sp, &o.m) {
		o.phase = phPost
		return sim.StepPark
	}
	return o.posted()
}

// posted follows a queued outgoing message.
func (o *op) posted() sim.Time {
	if o.ctl {
		o.out.done = true
	} else {
		o.sent += o.m.size
		o.out.done = o.m.last
	}
	if !o.in.done {
		return o.take()
	}
	return o.next()
}

// take receives the next message from o.in.peer into o.m; every
// message arrives through it. A data message ends with a cell marked
// last (a zero-byte message is one empty last cell), so a data cell
// carries bytes or is last, and a control message does neither. A
// mismatch is a protocol bug in the caller, which the rank raises
// naming the pair.
func (o *op) take() sim.Time {
	o.waitStart = o.sp.Now()
	if o.b = o.t.node.Liveness(); o.b != nil {
		o.deadline = o.waitStart + o.b.Config().Deadline
		return o.quantum(false)
	}
	if !o.qin.RecvStep(o.sp, &o.m) {
		o.phase = phTake
		return sim.StepPark
	}
	return o.taken()
}

// taken checks the message take received and sleeps until it is
// ready, noting the instants the wait began and the message became
// ready for the trace edge.
func (o *op) taken() sim.Time {
	if isData := o.m.size > 0 || o.m.last; o.m.tag != o.tag || isData == o.ctl {
		o.fail = failMismatch
		return sim.StepDone
	}
	now := o.sp.Now()
	o.readyTs = now
	if o.m.readyAt > now {
		o.readyTs = o.m.readyAt
		o.phase = phReady
		return o.m.readyAt - now
	}
	return o.ready()
}

// mismatch describes why take rejected m.
func mismatch(src, dst, tag int, data bool, m *message) string {
	switch {
	case m.tag != tag:
		return fmt.Sprintf("shm: tag mismatch on %d->%d: got %d, want %d", src, dst, m.tag, tag)
	case data:
		return fmt.Sprintf("shm: expected data cell on %d->%d, got control message", src, dst)
	}
	return fmt.Sprintf("shm: expected control message on %d->%d, got %d-byte data", src, dst, m.size)
}

// edge traces the hand-off of a message taken from src by dst, ready
// at readyAt, with the instants take noted, as consumed now.
func (t *Transport) edge(rec *trace.Recorder, sp *sim.Proc, src, dst, tag int, readyAt, waitStart, readyTs float64, args ...trace.Arg) {
	rec.Edge(t.lane(src), t.lane(dst), trace.CatShm, tagName(tag),
		readyAt-t.node.Arch.ShmLatency, readyTs, waitStart, sp.Now(), args...)
}

// SendCtl posts an 8-byte control message from src to dst.
func (t *Transport) SendCtl(sp *sim.Proc, src, dst, tag int, val int64) {
	o := t.ctlOp(sp, src, dst, tag, true)
	o.m.ctl = val
	t.run(o)
}

// RecvCtl consumes the next control message from src, asserting the tag
// matches.
func (t *Transport) RecvCtl(sp *sim.Proc, src, dst, tag int) int64 {
	ctl, _ := t.run(t.ctlOp(sp, dst, src, tag, false))
	return ctl
}

// ctlOp returns a control run of rank me: one message tagged tag
// posted to peer one ctlCost after it starts, or taken from peer and
// then consumed for one ctlCost.
func (t *Transport) ctlOp(sp *sim.Proc, me, peer, tag int, post bool) *op {
	o := t.newOp(sp, me, tag)
	o.ctl = true
	if post {
		o.out.peer, o.in.done = peer, true
		o.qout, o.cost, o.m.tag = t.queue(me, peer), ctlCost, tag
	} else {
		o.in.peer, o.out.done, o.draining = peer, true, true
		o.qin = t.queue(peer, me)
	}
	return o
}

// leg is one direction of a cell pipeline: size bytes at addr in proc's
// address space, moving to or from peer. A done leg takes no part.
type leg struct {
	peer int
	proc *kernel.Process
	addr kernel.Addr
	size int64
	done bool
}

// Send transmits size bytes from srcProc's buffer through the shared
// region (first copy). It returns once the last cell is staged.
func (t *Transport) Send(sp *sim.Proc, src, dst, tag int, srcProc *kernel.Process, addr kernel.Addr, size int64) {
	t.pipeline(sp, src, tag, leg{peer: dst, proc: srcProc, addr: addr, size: size}, leg{done: true})
}

// Recv receives a size-byte message from src into dstProc's buffer
// (second copy). size must match what the sender staged.
func (t *Transport) Recv(sp *sim.Proc, src, dst, tag int, dstProc *kernel.Process, addr kernel.Addr, size int64) {
	t.pipeline(sp, dst, tag, leg{done: true}, leg{peer: src, proc: dstProc, addr: addr, size: size})
}

// Exchange performs a simultaneous send to sendPeer and receive from
// recvPeer (they may be the same rank, as in a pairwise exchange, or
// different, as in a ring shift). All participants of the exchange
// pattern must call Exchange together.
func (t *Transport) Exchange(sp *sim.Proc, me, sendPeer, recvPeer, tag int, proc *kernel.Process, sAddr kernel.Addr, sSize int64, rAddr kernel.Addr, rSize int64) {
	t.pipeline(sp, me, tag, leg{peer: sendPeer, proc: proc, addr: sAddr, size: sSize},
		leg{peer: recvPeer, proc: proc, addr: rAddr, size: rSize})
}

// pipeline moves out's bytes from me to out.peer and in's bytes from
// in.peer into me through the shared region, strictly alternating one
// staged outgoing cell with one drained incoming cell. Send and Recv are
// the pipeline with the other leg done; Exchange runs both. The
// alternation keeps only a couple of cells in flight per direction, so
// the bounded queues cannot deadlock even for exchanged messages much
// larger than the queue depth. Copy costs accrue serially, matching a
// single core alternating between the two copy directions.
//
// With a recorder, it records the run as a span carrying its copy time,
// and traces the final incoming cell as an edge: the hand-off that gates
// this rank's completion when the sender is the slower side.
func (t *Transport) pipeline(sp *sim.Proc, me, tag int, out, in leg) {
	if out.size < 0 {
		panic("shm: negative send size")
	}
	o := t.newOp(sp, me, tag)
	o.out, o.in, o.draining = out, in, !in.done
	if rec := t.node.Recorder(); rec != nil {
		o.span = t.begin(rec, me, &o.out, &o.in)
	}
	if !out.done {
		o.qout = t.queue(me, out.peer)
	}
	if !in.done {
		o.qin = t.queue(in.peer, me)
	}
	t.run(o)
}

// begin opens the trace span of a pipeline run, named for the legs it
// moves.
func (t *Transport) begin(rec *trace.Recorder, me int, out, in *leg) trace.SpanID {
	switch {
	case in.done:
		return rec.Begin(t.lane(me), trace.CatShm, "shm_send",
			trace.F("peer", float64(t.lane(out.peer))), trace.F("bytes", float64(out.size)))
	case out.done:
		return rec.Begin(t.lane(me), trace.CatShm, "shm_recv",
			trace.F("peer", float64(t.lane(in.peer))), trace.F("bytes", float64(in.size)))
	}
	return rec.Begin(t.lane(me), trace.CatShm, "shm_exchange",
		trace.F("send_peer", float64(t.lane(out.peer))), trace.F("recv_peer", float64(t.lane(in.peer))),
		trace.F("sbytes", float64(out.size)), trace.F("rbytes", float64(in.size)))
}

// beginCell starts copying one n-byte cell between a process buffer
// and the shared region, as one active copy stream on the node, and
// returns its cost; the op ends the stream after the copy's sleep.
func (t *Transport) beginCell(n int64) float64 {
	a := t.node.Arch
	ct := a.ShmCellOverhead + float64(n)*t.node.EffPerByte(a.ShmCopyBeta())
	t.node.BeginCopy()
	return ct
}

// op is one message operation of a rank — a cell pipeline, or a
// control run of one message — as a sim.Stepper. Each Step runs what
// follows the op's current sleep or park and returns the next, so an
// operation costs the rank's coroutine one suspension however many
// cells, messages and liveness quanta it takes, and under contention
// sim.Run calls its steps on its own stack. Its state comes off a
// process-wide free list: every frame on the rank's path sits on every
// rank's coroutine stack, so the state stays off it, and trace
// arguments and panic messages are built in separate functions, only
// when used.
type op struct {
	t         *Transport
	sp        *sim.Proc
	me, tag   int
	out, in   leg
	qout, qin *sim.Chan[message]
	b         *liveness.Board // the board of the wait under way, nil without one
	ctl       bool            // a control run: out or in moves one control message
	draining  bool            // the op takes messages: trace its last one as an edge
	phase     opPhase
	fail      opFail
	m         message // the message being posted or taken
	sent, got int64
	cost      float64 // a control post's cost
	ct, copyT float64 // the current cell's copy time, and the run's total
	span      trace.SpanID
	deadline  sim.Time // the wait under way gives up on its peer here

	waitStart, readyTs, readyAt float64 // the latest take, for the trace edge
}

// opPhase names the sleep or park an op is in: the next Step runs what
// follows it.
type opPhase uint8

const (
	phStart     opPhase = iota // nothing run yet
	phStage                    // an outgoing cell's copy, or a control post's cost
	phPost                     // parked until the receiver's queue takes the message
	phTake                     // parked until a message arrives
	phReady                    // until the taken message is ready
	phDrain                    // an incoming cell's copy, or a control message's consume cost
	phAwaitPost                // a liveness quantum of a post
	phAwaitTake                // a liveness quantum of a take
)

// opFail is why an op ended early, for the rank to raise.
type opFail uint8

const (
	failNone     opFail = iota
	failDead            // a liveness wait saw a dead rank
	failMismatch        // take got a message of the wrong tag or kind
	failSize            // the incoming message's size differs from the expected one
)

// ops is the process-wide free list of op states. Its cap is the
// simulator's idle-worker cap: a rank blocked in a message operation
// holds one state, as it holds one coroutine, so a run with more ranks
// in flight than that allocates the rest, as it starts their
// coroutines. At the default cap of 1024, a 256-node cluster cell
// (4096 ranks, each in a control wait) allocated ~230 states per
// perfbench fabric op (+2%); at 4096 it allocates none, and the list
// pins at most 4096 states of 320 bytes.
var ops = sim.FreeList[op]{Cap: 4096}

// newOp returns an op of rank me for messages tagged tag.
func (t *Transport) newOp(sp *sim.Proc, me, tag int) *op {
	o := ops.Get()
	o.t, o.sp, o.me, o.tag = t, sp, me, tag
	return o
}

// run runs o to its end, frees it and returns its last message's
// control value and vector. A failed op is raised here, on the rank's
// own stack, so a PeerDeadError reaches the protected-collective
// boundary as a panic of the rank's body.
func (t *Transport) run(o *op) (int64, []int64) {
	o.sp.SleepSteps(o.Step(), o)
	if o.fail != failNone {
		o.raise()
	}
	ctl, vec := o.m.ctl, o.m.vec
	*o = op{}
	ops.Put(o)
	return ctl, vec
}

// raise frees the failed o and panics with its failure.
func (o *op) raise() {
	var v any
	switch o.fail {
	case failDead:
		v = liveness.NewPeerDeadError(o.b.DeadSet())
	case failMismatch:
		v = mismatch(o.in.peer, o.me, o.tag, !o.ctl, &o.m)
	default:
		v = fmt.Sprintf("shm: size mismatch on %d->%d: staged %d, expected %d", o.in.peer, o.me, o.got, o.in.size)
	}
	*o = op{}
	ops.Put(o)
	panic(v)
}

// Step runs the phase that follows the op's current sleep or park.
func (o *op) Step() sim.Time {
	switch o.phase {
	case phStage:
		return o.staged()
	case phPost:
		o.qout.Sent(o.sp)
		return o.posted()
	case phTake:
		o.qin.Received(o.sp, &o.m)
		return o.taken()
	case phReady:
		return o.ready()
	case phDrain:
		return o.drained()
	case phAwaitPost:
		if o.qout.Sent(o.sp) {
			return o.posted()
		}
		return o.missed(o.out.peer, true)
	case phAwaitTake:
		if o.qin.Received(o.sp, &o.m) {
			return o.taken()
		}
		return o.missed(o.in.peer, false)
	}
	return o.next()
}

// next stages the next outgoing cell, takes the next incoming one, or
// ends the op.
func (o *op) next() sim.Time {
	if !o.out.done {
		o.phase = phStage
		if o.ctl {
			return o.cost
		}
		o.ct = o.t.beginCell(min(int64(o.t.node.Arch.ShmCellSize), o.out.size-o.sent))
		return o.ct
	}
	if !o.in.done {
		return o.take()
	}
	return o.finish()
}

// staged follows an outgoing cell's copy: it builds the cell's message
// and posts it. A control run's message is built before it starts.
func (o *op) staged() sim.Time {
	if !o.ctl {
		o.t.node.EndCopy()
		o.copyT += o.ct
		out := &o.out
		n := min(int64(o.t.node.Arch.ShmCellSize), out.size-o.sent)
		o.m = message{tag: o.tag, size: n, last: o.sent+n >= out.size}
		if n > 0 {
			at := out.addr + kernel.Addr(o.sent)
			if o.t.node.CopyData {
				o.m.data = append([]byte(nil), out.proc.Bytes(at, n)...)
			}
			if out.proc.PayloadTracked() {
				o.m.sum = out.proc.RangeDigest(at, n)
			}
		}
	}
	return o.post()
}

// ready starts consuming the taken message: an incoming cell's copy,
// or a control message's consume cost.
func (o *op) ready() sim.Time {
	o.readyAt = o.m.readyAt
	o.phase = phDrain
	if o.ctl {
		return ctlCost
	}
	o.ct = o.t.beginCell(o.m.size)
	return o.ct
}

// drained follows an incoming message's consumption: a cell's bytes
// land in the receive buffer.
func (o *op) drained() sim.Time {
	if o.ctl {
		o.in.done = true
		return o.next()
	}
	o.t.node.EndCopy()
	o.copyT += o.ct
	in := &o.in
	if n := o.m.size; n > 0 {
		at := in.addr + kernel.Addr(o.got)
		if o.t.node.CopyData {
			copy(in.proc.Bytes(at, n), o.m.data)
		}
		in.proc.ApplyPayload(at, n, o.m.sum)
	}
	o.got += o.m.size
	in.done = o.m.last
	return o.next()
}

// finish traces the op's last take and closes its span, and checks
// that the incoming message had the expected size.
func (o *op) finish() sim.Time {
	if rec := o.t.node.Recorder(); rec != nil {
		o.traceEnd(rec)
	}
	if !o.ctl && o.got != o.in.size {
		o.fail = failSize
	}
	return sim.StepDone
}

// traceEnd traces the op's last take as an edge and closes a
// pipeline's span.
func (o *op) traceEnd(rec *trace.Recorder) {
	t := o.t
	if o.ctl {
		if o.draining {
			t.edge(rec, o.sp, o.in.peer, o.me, o.tag, o.readyAt, o.waitStart, o.readyTs)
		}
		return
	}
	if o.draining {
		t.edge(rec, o.sp, o.in.peer, o.me, o.tag, o.readyAt, o.waitStart, o.readyTs, trace.F("bytes", float64(o.in.size)))
	}
	rec.End(o.span, trace.F("copy", o.copyT))
}

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
// Exchange are one alternating cell pipeline over the two.
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

// await moves one message over q, the src -> dst queue, under liveness
// board b: it posts *m when send is set, and otherwise receives the next
// message into *m. The wait is chopped into Poll-sized quanta: each
// quantum the waiting rank (src posting, dst receiving) re-publishes its
// own heartbeat, then attempts a timed Send or Recv; one that completes
// in time does so at its exact instant (the timed wait cancels its
// deadline event unprocessed), so healthy runs are latency-identical to
// board-less ones. A post waits only while dst's queue is full (a dead
// receiver never drains its cells).
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
// ends the wait. Either way a failed wait panics with a
// *liveness.PeerDeadError, which the MPI layer recovers at the
// protected-collective boundary — collectives in internal/core need no
// error plumbing.
func (t *Transport) await(sp *sim.Proc, b *liveness.Board, q *sim.Chan[message], src, dst int, send bool, m *message) {
	self, peer, op := dst, src, "recv"
	if send {
		self, peer, op = src, dst, "send"
	}
	cfg := b.Config()
	deadline := sp.Now() + cfg.Deadline
	for {
		b.Beat(t.bid(self))
		wait := cfg.Poll
		if r := deadline - sp.Now(); r > 0 && r < wait {
			wait = r
		}
		if send {
			if q.SendTimeout(sp, *m, wait) {
				return
			}
		} else if got, ok := q.RecvTimeout(sp, wait); ok {
			*m = got
			return
		}
		dead := b.AnyDead()
		if !dead && sp.Now() >= deadline && b.Stale(t.bid(peer), cfg.Deadline) {
			b.MarkDead(t.bid(peer))
			dead = true
		}
		if dead { // trace the detection, then abort with the failed-rank set
			if rec := t.node.Recorder(); rec != nil {
				rec.Instant(t.lane(self), trace.CatLiveness, "peer_dead_"+op,
					trace.F("peer", float64(t.lane(peer))))
			}
			panic(liveness.NewPeerDeadError(b.DeadSet()))
		}
	}
}

// post stamps *m with the instant dst may consume it — one ShmLatency
// from now, plus any injected stall — and queues it from src to dst;
// every message leaves through it. post and take call the queue
// directly on the plain path, and take formats panics in mismatch: each
// frame here sits on every rank's coroutine stack, and grows them all.
func (t *Transport) post(sp *sim.Proc, src, dst int, m *message) {
	m.readyAt = sp.Now() + t.node.Arch.ShmLatency + t.stall(src, dst)
	if q, b := t.queue(src, dst), t.node.Liveness(); b != nil {
		t.await(sp, b, q, src, dst, true, m)
	} else {
		q.Send(sp, *m)
	}
}

// take receives the next message from src to dst into *m, checks its
// tag and kind, and sleeps until it is ready; every message arrives
// through it. A data message ends with a cell marked last (a zero-byte
// message is one empty last cell), so a data cell carries bytes or is
// last, and a control message does neither. A mismatch is a protocol bug
// in the caller and panics naming the pair. take returns the instants
// the wait began and the message became ready, for the trace edge.
func (t *Transport) take(sp *sim.Proc, src, dst, tag int, data bool, m *message) (waitStart, readyTs float64) {
	waitStart = sp.Now()
	if q, b := t.queue(src, dst), t.node.Liveness(); b != nil {
		t.await(sp, b, q, src, dst, false, m)
	} else {
		*m = q.Recv(sp)
	}
	if isData := m.size > 0 || m.last; m.tag != tag || isData != data {
		panic(mismatch(src, dst, tag, data, m))
	}
	readyTs = sp.Now()
	if m.readyAt > readyTs {
		readyTs = m.readyAt
		sp.Sleep(m.readyAt - sp.Now())
	}
	return waitStart, readyTs
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
// at readyAt, with the instants take returned, as consumed now.
func (t *Transport) edge(rec *trace.Recorder, sp *sim.Proc, src, dst, tag int, readyAt, waitStart, readyTs float64, args ...trace.Arg) {
	rec.Edge(t.lane(src), t.lane(dst), trace.CatShm, tagName(tag),
		readyAt-t.node.Arch.ShmLatency, readyTs, waitStart, sp.Now(), args...)
}

// SendCtl posts an 8-byte control message from src to dst.
func (t *Transport) SendCtl(sp *sim.Proc, src, dst, tag int, val int64) {
	sp.Sleep(ctlCost)
	t.post(sp, src, dst, &message{tag: tag, ctl: val})
}

// RecvCtl consumes the next control message from src, asserting the tag
// matches.
func (t *Transport) RecvCtl(sp *sim.Proc, src, dst, tag int) int64 {
	return t.takeCtl(sp, src, dst, tag).ctl
}

// takeCtl consumes the next control message from src to dst: take,
// then the consume cost.
func (t *Transport) takeCtl(sp *sim.Proc, src, dst, tag int) (m message) {
	waitStart, readyTs := t.take(sp, src, dst, tag, false, &m)
	sp.Sleep(ctlCost)
	if rec := t.node.Recorder(); rec != nil {
		t.edge(rec, sp, src, dst, tag, m.readyAt, waitStart, readyTs)
	}
	return m
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
	span := trace.NoSpan
	if rec := t.node.Recorder(); rec != nil {
		span = t.begin(rec, me, &out, &in)
	}
	cell := int64(t.node.Arch.ShmCellSize)
	draining := !in.done
	var sent, got int64
	var m message
	copyT, waitStart, readyTs, readyAt := 0.0, 0.0, 0.0, 0.0 // the take of the latest incoming cell
	for !out.done || !in.done {
		if !out.done {
			n := min(cell, out.size-sent)
			copyT += t.copyCell(sp, n)
			m = message{tag: tag, size: n, last: sent+n >= out.size}
			if n > 0 {
				at := out.addr + kernel.Addr(sent)
				if t.node.CopyData {
					m.data = append([]byte(nil), out.proc.Bytes(at, n)...)
				}
				if out.proc.PayloadTracked() {
					m.sum = out.proc.RangeDigest(at, n)
				}
			}
			t.post(sp, me, out.peer, &m)
			sent += n
			out.done = m.last
		}
		if !in.done {
			waitStart, readyTs = t.take(sp, in.peer, me, tag, true, &m)
			readyAt = m.readyAt
			n := m.size
			copyT += t.copyCell(sp, n)
			if n > 0 {
				at := in.addr + kernel.Addr(got)
				if t.node.CopyData {
					copy(in.proc.Bytes(at, n), m.data)
				}
				in.proc.ApplyPayload(at, n, m.sum)
			}
			got += n
			in.done = m.last
		}
	}
	if rec := t.node.Recorder(); rec != nil {
		if draining {
			t.edge(rec, sp, in.peer, me, tag, readyAt, waitStart, readyTs, trace.F("bytes", float64(in.size)))
		}
		rec.End(span, trace.F("copy", copyT))
	}
	if got != in.size {
		panic(fmt.Sprintf("shm: size mismatch on %d->%d: staged %d, expected %d", in.peer, me, got, in.size))
	}
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

// copyCell copies one n-byte cell between a process buffer and the
// shared region, as one active copy stream on the node, and returns its
// cost.
func (t *Transport) copyCell(sp *sim.Proc, n int64) float64 {
	a := t.node.Arch
	ct := a.ShmCellOverhead + float64(n)*t.node.EffPerByte(a.ShmCopyBeta())
	t.node.BeginCopy()
	sp.Sleep(ct)
	t.node.EndCopy()
	return ct
}

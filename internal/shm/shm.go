// Package shm implements the shared-memory (two-copy) intra-node
// transport that MPI libraries use alongside kernel-assisted copies.
//
// A message of n bytes is pipelined through fixed-size cells: the sender
// copies each cell from its buffer into the shared region, and the
// receiver copies it out — two memcpys per byte, the cost structure the
// paper contrasts with CMA's single copy. Small 8-byte control messages
// (buffer addresses, RTS/CTS, 0-byte synchronizations) ride the same
// per-pair FIFO queues.
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

type message struct {
	tag     int
	size    int64
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

// recvMsg takes the next message from src's queue to dst. Without a
// liveness board this is a plain unbounded Recv. With a board attached,
// the wait is chopped into Poll-sized quanta: each quantum the receiver
// re-publishes its own heartbeat, then attempts a timed receive; a
// message that arrives in time is delivered at its exact arrival
// instant (the timed wait cancels its deadline event unprocessed), so
// healthy runs are latency-identical to board-less ones.
//
// A quantum that ends empty-handed while *any* rank is marked dead
// aborts the wait — ULFM-style revocation. The direct peer may be
// perfectly alive but already aborted out of the doomed collective
// (it observed the death first and will never send); waiting the full
// Deadline on it would then falsely declare a survivor dead, and the
// false positive would cascade through the agreement round. After a
// full Deadline with nothing delivered and nothing on the board, the
// awaited src is declared dead — but only if its heartbeat is also a
// full Deadline stale (Board.Stale). A fresh heartbeat means src is
// alive and merely blocked elsewhere, typically on the actually-dead
// rank whose own waiter expires at the same instant; the receiver then
// keeps polling until that true death lands on the board and revocation
// ends the wait. Either way a failed wait panics with a
// *liveness.PeerDeadError,
// which the MPI layer recovers at the protected-collective boundary —
// collectives in internal/core need no error plumbing.
func (t *Transport) recvMsg(sp *sim.Proc, src, dst int) message {
	q := t.queue(src, dst)
	b := t.node.Liveness()
	if b == nil {
		return q.Recv(sp)
	}
	cfg := b.Config()
	deadline := sp.Now() + cfg.Deadline
	for {
		b.Beat(t.bid(dst))
		wait := cfg.Poll
		if r := deadline - sp.Now(); r > 0 && r < wait {
			wait = r
		}
		if m, ok := q.RecvTimeout(sp, wait); ok {
			return m
		}
		if b.AnyDead() {
			t.liveFail(dst, src, "recv")
		}
		if sp.Now() >= deadline && b.Stale(t.bid(src), cfg.Deadline) {
			b.MarkDead(t.bid(src))
			t.liveFail(dst, src, "recv")
		}
	}
}

// sendMsg posts a message from src to dst, with the same deadline and
// revocation discipline as recvMsg for the flow-control stall when
// dst's queue is full (a dead receiver never drains its cells).
func (t *Transport) sendMsg(sp *sim.Proc, src, dst int, m message) {
	q := t.queue(src, dst)
	b := t.node.Liveness()
	if b == nil {
		q.Send(sp, m)
		return
	}
	cfg := b.Config()
	deadline := sp.Now() + cfg.Deadline
	for {
		b.Beat(t.bid(src))
		wait := cfg.Poll
		if r := deadline - sp.Now(); r > 0 && r < wait {
			wait = r
		}
		if q.SendTimeout(sp, m, wait) {
			return
		}
		if b.AnyDead() {
			t.liveFail(src, dst, "send")
		}
		if sp.Now() >= deadline && b.Stale(t.bid(dst), cfg.Deadline) {
			b.MarkDead(t.bid(dst))
			t.liveFail(src, dst, "send")
		}
	}
}

// liveFail aborts the calling rank's wait against a dead peer: it traces
// the detection and panics with the board's current failed-rank set.
func (t *Transport) liveFail(self, peer int, op string) {
	b := t.node.Liveness()
	if rec := t.node.Recorder(); rec != nil {
		rec.Instant(t.lane(self), trace.CatLiveness, "peer_dead_"+op,
			trace.F("peer", float64(t.lane(peer))))
	}
	panic(liveness.NewPeerDeadError(b.DeadSet()))
}

// SendCtl posts an 8-byte control message from src to dst.
func (t *Transport) SendCtl(sp *sim.Proc, src, dst, tag int, val int64) {
	sp.Sleep(ctlCost)
	t.sendMsg(sp, src, dst, message{
		tag:     tag,
		readyAt: sp.Now() + t.node.Arch.ShmLatency + t.stall(src, dst),
		ctl:     val,
	})
}

// RecvCtl consumes the next control message from src, asserting the tag
// matches (a mismatch is a protocol bug in the collective, not a runtime
// condition).
func (t *Transport) RecvCtl(sp *sim.Proc, src, dst, tag int) int64 {
	waitStart := sp.Now()
	m := t.recvMsg(sp, src, dst)
	if m.tag != tag {
		panic(fmt.Sprintf("shm: tag mismatch on %d->%d: got %d, want %d", src, dst, m.tag, tag))
	}
	if m.size != 0 {
		panic(fmt.Sprintf("shm: expected control message on %d->%d, got %d-byte data", src, dst, m.size))
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
	return m.ctl
}

// Send transmits size bytes from srcProc's buffer through the shared
// region (first copy). It returns once the last cell is staged.
func (t *Transport) Send(sp *sim.Proc, src, dst, tag int, srcProc *kernel.Process, addr kernel.Addr, size int64) {
	if size < 0 {
		panic("shm: negative send size")
	}
	a := t.node.Arch
	cell := int64(a.ShmCellSize)
	beta := a.ShmCopyBeta()
	rec := t.node.Recorder()
	span := trace.NoSpan
	copyT := 0.0
	if rec != nil {
		span = rec.Begin(t.lane(src), trace.CatShm, "shm_send",
			trace.F("peer", float64(t.lane(dst))), trace.F("bytes", float64(size)))
	}
	for off := int64(0); ; off += cell {
		n := cell
		if size-off < n {
			n = size - off
		}
		if n < 0 {
			n = 0
		}
		ct := a.ShmCellOverhead + float64(n)*t.node.EffPerByte(beta)
		t.node.BeginCopy()
		sp.Sleep(ct)
		t.node.EndCopy()
		m := message{
			tag:     tag,
			size:    n,
			readyAt: sp.Now() + a.ShmLatency + t.stall(src, dst),
			last:    off+n >= size,
		}
		if m.size == 0 {
			m.size = -1 // distinguish a zero-length data cell from a ctl message
		}
		if t.node.CopyData && n > 0 {
			m.data = append([]byte(nil), srcProc.Bytes(addr+kernel.Addr(off), n)...)
		}
		if n > 0 && srcProc.PayloadTracked() {
			m.sum = srcProc.RangeDigest(addr+kernel.Addr(off), n)
		}
		t.sendMsg(sp, src, dst, m)
		if m.last {
			if rec != nil {
				rec.End(span, trace.F("copy", copyT+ct))
			}
			return
		}
		copyT += ct
	}
}

// Exchange performs a simultaneous send to sendPeer and receive from
// recvPeer (they may be the same rank, as in a pairwise exchange, or
// different, as in a ring shift), strictly alternating one staged
// outgoing cell with one drained incoming cell. All participants of the
// exchange pattern must call Exchange together; the alternation keeps
// only a couple of cells in flight per direction, so the bounded queues
// cannot deadlock even for messages much larger than the queue depth.
// Copy costs accrue serially, matching a single core alternating between
// the two copy directions.
func (t *Transport) Exchange(sp *sim.Proc, me, sendPeer, recvPeer, tag int, proc *kernel.Process, sAddr kernel.Addr, sSize int64, rAddr kernel.Addr, rSize int64) {
	a := t.node.Arch
	cell := int64(a.ShmCellSize)
	beta := a.ShmCopyBeta()
	rec := t.node.Recorder()
	span := trace.NoSpan
	copyT, waitStart, readyTs, lastReadyAt := 0.0, 0.0, 0.0, 0.0
	if rec != nil {
		span = rec.Begin(t.lane(me), trace.CatShm, "shm_exchange",
			trace.F("send_peer", float64(t.lane(sendPeer))), trace.F("recv_peer", float64(t.lane(recvPeer))),
			trace.F("sbytes", float64(sSize)), trace.F("rbytes", float64(rSize)))
	}
	var sent, got int64
	sendDone, recvDone := false, false
	for !sendDone || !recvDone {
		if !sendDone {
			n := cell
			if sSize-sent < n {
				n = sSize - sent
			}
			if n < 0 {
				n = 0
			}
			ct := a.ShmCellOverhead + float64(n)*t.node.EffPerByte(beta)
			copyT += ct
			t.node.BeginCopy()
			sp.Sleep(ct)
			t.node.EndCopy()
			m := message{tag: tag, size: n, readyAt: sp.Now() + a.ShmLatency + t.stall(me, sendPeer), last: sent+n >= sSize}
			if m.size == 0 {
				m.size = -1
			}
			if t.node.CopyData && n > 0 {
				m.data = append([]byte(nil), proc.Bytes(sAddr+kernel.Addr(sent), n)...)
			}
			if n > 0 && proc.PayloadTracked() {
				m.sum = proc.RangeDigest(sAddr+kernel.Addr(sent), n)
			}
			t.sendMsg(sp, me, sendPeer, m)
			sent += n
			sendDone = m.last
		}
		if !recvDone {
			waitStart = sp.Now()
			m := t.recvMsg(sp, recvPeer, me)
			if m.tag != tag {
				panic(fmt.Sprintf("shm: tag mismatch on %d->%d: got %d, want %d", recvPeer, me, m.tag, tag))
			}
			n := m.size
			if n == -1 {
				n = 0
			}
			readyTs = sp.Now()
			lastReadyAt = m.readyAt
			if m.readyAt > readyTs {
				readyTs = m.readyAt
				sp.Sleep(m.readyAt - sp.Now())
			}
			ct := a.ShmCellOverhead + float64(n)*t.node.EffPerByte(beta)
			copyT += ct
			t.node.BeginCopy()
			sp.Sleep(ct)
			t.node.EndCopy()
			if t.node.CopyData && n > 0 {
				copy(proc.Bytes(rAddr+kernel.Addr(got), n), m.data)
			}
			if n > 0 {
				proc.ApplyPayload(rAddr+kernel.Addr(got), n, m.sum)
			}
			got += n
			recvDone = m.last
		}
	}
	if rec != nil {
		// The edge covers the final incoming cell: the hand-off that can
		// gate this rank's completion of the exchange.
		rec.Edge(t.lane(recvPeer), t.lane(me), trace.CatShm, tagName(tag),
			lastReadyAt-a.ShmLatency, readyTs, waitStart, sp.Now(),
			trace.F("bytes", float64(rSize)))
		rec.End(span, trace.F("copy", copyT))
	}
	if got != rSize {
		panic(fmt.Sprintf("shm: exchange size mismatch on %d<-%d: got %d, expected %d", me, recvPeer, got, rSize))
	}
}

// Recv receives a size-byte message from src into dstProc's buffer
// (second copy). size must match what the sender staged.
func (t *Transport) Recv(sp *sim.Proc, src, dst, tag int, dstProc *kernel.Process, addr kernel.Addr, size int64) {
	a := t.node.Arch
	beta := a.ShmCopyBeta()
	rec := t.node.Recorder()
	span := trace.NoSpan
	copyT, waitStart, readyTs, lastReadyAt := 0.0, 0.0, 0.0, 0.0
	if rec != nil {
		span = rec.Begin(t.lane(dst), trace.CatShm, "shm_recv",
			trace.F("peer", float64(t.lane(src))), trace.F("bytes", float64(size)))
	}
	var got int64
	for {
		waitStart = sp.Now()
		m := t.recvMsg(sp, src, dst)
		if m.tag != tag {
			panic(fmt.Sprintf("shm: tag mismatch on %d->%d: got %d, want %d", src, dst, m.tag, tag))
		}
		n := m.size
		if n == -1 {
			n = 0
		}
		readyTs = sp.Now()
		lastReadyAt = m.readyAt
		if m.readyAt > readyTs {
			readyTs = m.readyAt
			sp.Sleep(m.readyAt - sp.Now())
		}
		ct := a.ShmCellOverhead + float64(n)*t.node.EffPerByte(beta)
		copyT += ct
		t.node.BeginCopy()
		sp.Sleep(ct)
		t.node.EndCopy()
		if t.node.CopyData && n > 0 {
			copy(dstProc.Bytes(addr+kernel.Addr(got), n), m.data)
		}
		if n > 0 {
			dstProc.ApplyPayload(addr+kernel.Addr(got), n, m.sum)
		}
		got += n
		if m.last {
			break
		}
	}
	if rec != nil {
		// The edge covers the final cell — the hand-off that gates this
		// receive's completion when the sender is the slower side.
		rec.Edge(t.lane(src), t.lane(dst), trace.CatShm, tagName(tag),
			lastReadyAt-a.ShmLatency, readyTs, waitStart, sp.Now(),
			trace.F("bytes", float64(size)))
		rec.End(span, trace.F("copy", copyT))
	}
	if got != size {
		panic(fmt.Sprintf("shm: size mismatch on %d->%d: staged %d, expected %d", src, dst, got, size))
	}
}

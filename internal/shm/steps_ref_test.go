package shm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"camc/internal/arch"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/sim"
	"camc/internal/trace"
)

// The reference: the cell pipeline, the control-message take and the
// liveness wait as they ran on the rank's coroutine, one blocking
// channel call or Sleep per message and cell, kept verbatim but for the
// ref prefix. TestStepsMatchReference runs random plans through it and
// through the transport's own operations.

func (t *Transport) refAwait(sp *sim.Proc, b *liveness.Board, q *sim.Chan[message], src, dst int, send bool, m *message) {
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

func (t *Transport) refPost(sp *sim.Proc, src, dst int, m *message) {
	m.readyAt = sp.Now() + t.node.Arch.ShmLatency + t.stall(src, dst)
	if q, b := t.queue(src, dst), t.node.Liveness(); b != nil {
		t.refAwait(sp, b, q, src, dst, true, m)
	} else {
		q.Send(sp, *m)
	}
}

func (t *Transport) refTake(sp *sim.Proc, src, dst, tag int, data bool, m *message) (waitStart, readyTs float64) {
	waitStart = sp.Now()
	if q, b := t.queue(src, dst), t.node.Liveness(); b != nil {
		t.refAwait(sp, b, q, src, dst, false, m)
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

func (t *Transport) refSendCtl(sp *sim.Proc, src, dst, tag int, val int64) {
	sp.Sleep(ctlCost)
	t.refPost(sp, src, dst, &message{tag: tag, ctl: val})
}

func (t *Transport) refRecvCtl(sp *sim.Proc, src, dst, tag int) int64 {
	return t.refTakeCtl(sp, src, dst, tag).ctl
}

func (t *Transport) refTakeCtl(sp *sim.Proc, src, dst, tag int) (m message) {
	waitStart, readyTs := t.refTake(sp, src, dst, tag, false, &m)
	sp.Sleep(ctlCost)
	if rec := t.node.Recorder(); rec != nil {
		t.edge(rec, sp, src, dst, tag, m.readyAt, waitStart, readyTs)
	}
	return m
}

func (t *Transport) refSendCtlVec(sp *sim.Proc, src, dst, tag int, vals []int64) {
	sp.Sleep(float64(len(vals)) * ctlCost)
	t.refPost(sp, src, dst, &message{tag: tag, vec: vals})
}

func (t *Transport) refRecvCtlVec(sp *sim.Proc, src, dst, tag, n int) []int64 {
	m := t.refTakeCtl(sp, src, dst, tag)
	if len(m.vec) != n {
		panic(fmt.Sprintf("shm: expected %d-entry control vector on %d->%d, got %d", n, src, dst, len(m.vec)))
	}
	return m.vec
}

func (t *Transport) refSend(sp *sim.Proc, src, dst, tag int, srcProc *kernel.Process, addr kernel.Addr, size int64) {
	t.refPipeline(sp, src, tag, leg{peer: dst, proc: srcProc, addr: addr, size: size}, leg{done: true})
}

func (t *Transport) refRecv(sp *sim.Proc, src, dst, tag int, dstProc *kernel.Process, addr kernel.Addr, size int64) {
	t.refPipeline(sp, dst, tag, leg{done: true}, leg{peer: src, proc: dstProc, addr: addr, size: size})
}

func (t *Transport) refExchange(sp *sim.Proc, me, sendPeer, recvPeer, tag int, proc *kernel.Process, sAddr kernel.Addr, sSize int64, rAddr kernel.Addr, rSize int64) {
	t.refPipeline(sp, me, tag, leg{peer: sendPeer, proc: proc, addr: sAddr, size: sSize},
		leg{peer: recvPeer, proc: proc, addr: rAddr, size: rSize})
}

func (t *Transport) refPipeline(sp *sim.Proc, me, tag int, out, in leg) {
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
			copyT += t.refCopyCell(sp, n)
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
			t.refPost(sp, me, out.peer, &m)
			sent += n
			out.done = m.last
		}
		if !in.done {
			waitStart, readyTs = t.refTake(sp, in.peer, me, tag, true, &m)
			readyAt = m.readyAt
			n := m.size
			copyT += t.refCopyCell(sp, n)
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

func (t *Transport) refCopyCell(sp *sim.Proc, n int64) float64 {
	a := t.node.Arch
	ct := a.ShmCellOverhead + float64(n)*t.node.EffPerByte(a.ShmCopyBeta())
	t.node.BeginCopy()
	sp.Sleep(ct)
	t.node.EndCopy()
	return ct
}

// shmOps is one implementation of the transport's message operations.
type shmOps struct {
	send     func(t *Transport, sp *sim.Proc, src, dst, tag int, proc *kernel.Process, addr kernel.Addr, size int64)
	recv     func(t *Transport, sp *sim.Proc, src, dst, tag int, proc *kernel.Process, addr kernel.Addr, size int64)
	exchange func(t *Transport, sp *sim.Proc, me, sendPeer, recvPeer, tag int, proc *kernel.Process, sAddr kernel.Addr, sSize int64, rAddr kernel.Addr, rSize int64)
	sendCtl  func(t *Transport, sp *sim.Proc, src, dst, tag int, val int64)
	recvCtl  func(t *Transport, sp *sim.Proc, src, dst, tag int) int64
	sendVec  func(t *Transport, sp *sim.Proc, src, dst, tag int, vals []int64)
	recvVec  func(t *Transport, sp *sim.Proc, src, dst, tag, n int) []int64
}

var (
	liveOps = shmOps{(*Transport).Send, (*Transport).Recv, (*Transport).Exchange,
		(*Transport).SendCtl, (*Transport).RecvCtl, (*Transport).sendCtlVec, (*Transport).recvCtlVec}
	refOps = shmOps{(*Transport).refSend, (*Transport).refRecv, (*Transport).refExchange,
		(*Transport).refSendCtl, (*Transport).refRecvCtl, (*Transport).refSendCtlVec, (*Transport).refRecvCtlVec}
)

// Round kinds of a reference plan.
const (
	rkPairs    = iota // paired Send and Recv
	rkRing            // every rank Exchanges with its ring neighbours
	rkPairwise        // paired Exchanges
	rkCtl             // paired runs of SendCtl and RecvCtl
	rkVec             // paired sendCtlVec and recvCtlVec
	rkKinds
)

// refRound is one round of a plan: every rank sleeps its delay, then
// takes its part in one communication pattern.
type refRound struct {
	kind  int
	peer  []int     // each rank's partner in a paired round (-1: idle); lower ranks send
	size  []int64   // each rank's outgoing bytes (a ctl run's count, a vector's length)
	delay []float64 // each rank's sleep before the round
	bad   int       // the rank whose receive expects a wrong tag or size, or -1
}

// refPlan is one random scenario.
type refPlan struct {
	arch                    *arch.Profile
	procs                   int
	copyData, digest, stall bool
	board, rec              bool
	victim, dieAt           int // the rank that dies silently at round dieAt, or -1
	rounds                  []refRound
}

// refOutcome is everything a plan's run shows.
type refOutcome struct {
	log    []string
	now    uint64
	events uint64
	run    string
	trace  []trace.Event
	mem    []string
}

// genPlan draws a plan on p ranks.
func genPlan(rng *rand.Rand, board, rec, stall, protocol, kill bool) refPlan {
	pl := refPlan{procs: 2 + rng.Intn(5), board: board, rec: rec, stall: stall, victim: -1, dieAt: -1}
	pl.arch = []*arch.Profile{arch.KNL(), arch.Broadwell(), arch.Power8()}[rng.Intn(3)]
	pl.copyData = rng.Intn(2) == 0
	pl.digest = rng.Intn(2) == 0
	cell := int64(pl.arch.ShmCellSize)
	sizes := []int64{0, 1, cell - 1, cell, cell + 1, 3*cell + 5, (queueDepth+2)*cell + 7}
	nr := 1 + rng.Intn(5)
	for k := 0; k < nr; k++ {
		rd := refRound{kind: rng.Intn(rkKinds), bad: -1,
			peer: make([]int, pl.procs), size: make([]int64, pl.procs), delay: make([]float64, pl.procs)}
		perm := rng.Perm(pl.procs)
		for i := range rd.peer {
			rd.peer[i] = -1
		}
		for i := 0; i+1 < len(perm); i += 2 {
			rd.peer[perm[i]], rd.peer[perm[i+1]] = perm[i+1], perm[i]
		}
		for r := range rd.size {
			switch rd.kind {
			case rkCtl:
				rd.size[r] = 1 + int64(rng.Intn(queueDepth+4))
			case rkVec:
				rd.size[r] = int64(rng.Intn(9))
			default:
				rd.size[r] = sizes[rng.Intn(len(sizes))]
			}
			if rng.Intn(3) > 0 {
				rd.delay[r] = float64(rng.Intn(8)) * 0.25
			}
		}
		if protocol && rng.Intn(2) == 0 && rd.kind != rkRing {
			rd.bad = rng.Intn(pl.procs)
		}
		pl.rounds = append(pl.rounds, rd)
	}
	if kill {
		pl.victim, pl.dieAt = rng.Intn(pl.procs), rng.Intn(nr)
	}
	return pl
}

// runPlan runs pl through ops.
func runPlan(pl refPlan, ops shmOps) refOutcome {
	s := sim.New()
	node := kernel.NewNode(s, pl.arch)
	node.CopyData = pl.copyData
	node.DigestPayload = pl.digest
	var rec *trace.Recorder
	if pl.rec {
		rec = trace.NewUnbound()
		node.SetRecorder(rec)
	}
	if pl.stall {
		node.SetFaultPlan(fault.New(fault.Config{Seed: 7, ShmStallProb: 0.3}))
	}
	if pl.board {
		node.SetLiveness(liveness.NewBoard(s, pl.procs, liveness.Config{Deadline: 60, Poll: 7}))
	}
	const region = 1 << 20 // each rank sends from [0, region) and receives into [region, 2·region)
	procs := make([]*kernel.Process, pl.procs)
	for i := range procs {
		procs[i] = node.NewProcess(2 * region)
		rec.RegisterLane(i, fmt.Sprint("rank", i), procs[i].PID())
		if pl.copyData || pl.digest {
			procs[i].FillAt(0, region, byte(17*i+3))
		}
	}
	tr := New(node, pl.procs)
	var out refOutcome
	logf := func(format string, args ...any) { out.log = append(out.log, fmt.Sprintf(format, args...)) }
	for me := 0; me < pl.procs; me++ {
		s.Spawn(fmt.Sprint("rank", me), func(sp *sim.Proc) {
			for k, rd := range pl.rounds {
				if me == pl.victim && k == pl.dieAt {
					logf("r%d dies @%x", me, math.Float64bits(sp.Now()))
					return
				}
				if rd.delay[me] > 0 {
					sp.Sleep(rd.delay[me])
				}
				if v, ok := refRunRound(tr, sp, ops, procs[me], rd, me, k, region); !ok {
					logf("r%d round %d panic %v @%x", me, k, v, math.Float64bits(sp.Now()))
					return
				} else if v != nil {
					logf("r%d round %d got %v", me, k, v)
				}
				logf("r%d round %d @%x", me, k, math.Float64bits(sp.Now()))
			}
		})
	}
	out.run = func() (res string) {
		defer func() {
			if v := recover(); v != nil {
				res = fmt.Sprint("panic: ", v)
			}
		}()
		return fmt.Sprint(s.Run())
	}()
	out.now, out.events = math.Float64bits(s.Now()), s.EventsProcessed()
	if rec != nil {
		out.trace = rec.Events()
	}
	for _, p := range procs {
		switch {
		case pl.copyData:
			out.mem = append(out.mem, fmt.Sprintf("%x", p.Bytes(region, region)))
		case pl.digest:
			out.mem = append(out.mem, fmt.Sprint(p.RangeDigest(region, region)))
		}
	}
	return out
}

// refRunRound runs rank me's part of round k, returning what it
// received from control messages, or the panic that ended it.
func refRunRound(tr *Transport, sp *sim.Proc, ops shmOps, proc *kernel.Process, rd refRound, me, k int, region kernel.Addr) (v any, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			v, ok = r, false
		}
	}()
	tag := 5 + k
	rtag, extra := tag, int64(0) // what the receive expects
	if rd.bad == me {
		if k%2 == 0 {
			rtag++
		} else {
			extra = 1
		}
	}
	p := tr.nranks
	peer := rd.peer[me]
	switch rd.kind {
	case rkRing:
		from := (me - 1 + p) % p
		ops.exchange(tr, sp, me, (me+1)%p, from, tag, proc, 0, rd.size[me], region, rd.size[from])
		return nil, true
	}
	if peer < 0 {
		return nil, true
	}
	sender := me < peer
	switch rd.kind {
	case rkPairs:
		if sender {
			ops.send(tr, sp, me, peer, tag, proc, 0, rd.size[me])
		} else {
			ops.recv(tr, sp, peer, me, rtag, proc, region, rd.size[peer]+extra)
		}
	case rkPairwise:
		ops.exchange(tr, sp, me, peer, peer, rtag, proc, 0, rd.size[me], region, rd.size[peer]+extra)
	case rkCtl:
		if sender {
			for i := int64(0); i < rd.size[me]; i++ {
				ops.sendCtl(tr, sp, me, peer, tag, int64(me)*1000+i)
			}
			return nil, true
		}
		var got []int64
		for i := int64(0); i < rd.size[peer]; i++ {
			got = append(got, ops.recvCtl(tr, sp, peer, me, rtag))
		}
		return got, true
	case rkVec:
		if sender {
			vals := make([]int64, rd.size[me])
			for i := range vals {
				vals[i] = int64(me)*100 + int64(i)
			}
			ops.sendVec(tr, sp, me, peer, tag, vals)
			return nil, true
		}
		return ops.recvVec(tr, sp, peer, me, rtag, int(rd.size[peer]+extra)), true
	}
	return nil, true
}

// TestStepsMatchReference: random plans run through the transport's
// operations and through the reference show the same per-rank log of
// instants, received values and recovered panics, the same final
// clock bits, EventsProcessed and run outcome (a deadlock names each
// blocked rank and what it waits on), the same trace events, and the
// same received bytes or digests. The plans cover 0 and 1 bytes, a
// cell ±1 and more than queueDepth cells; ring and pairwise exchanges;
// control runs longer than the queue and control vectors; shm stall
// faults; a liveness board with and without a rank that dies silently;
// protocol mismatches; and a recorder.
func TestStepsMatchReference(t *testing.T) {
	rows := []struct {
		name                              string
		board, rec, stall, protocol, kill bool
	}{
		{"plain", false, false, false, false, false},
		{"recorder", false, true, false, false, false},
		{"stalls", false, false, true, false, false},
		{"stalls and recorder", false, true, true, false, false},
		{"board", true, false, false, false, false},
		{"board dead peer", true, false, false, false, true},
		{"board dead peer, stalls and recorder", true, true, true, false, true},
		{"protocol", false, false, false, true, false},
		{"protocol, board and recorder", true, true, false, true, false},
	}
	n := 25
	if testing.Short() {
		n = 10
	}
	for ri, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(ri + 1)))
			panics, deaths := 0, 0
			for c := 0; c < n; c++ {
				pl := genPlan(rng, row.board, row.rec, row.stall, row.protocol, row.kill)
				want, got := runPlan(pl, refOps), runPlan(pl, liveOps)
				if !slices.Equal(want.log, got.log) {
					t.Fatalf("case %d: %+v\nreference log\n%v\nstepped log\n%v", c, pl, want.log, got.log)
				}
				if want.now != got.now || want.events != got.events || want.run != got.run {
					t.Fatalf("case %d: reference ends at %x after %d events (%s), stepped at %x after %d (%s)",
						c, want.now, want.events, want.run, got.now, got.events, got.run)
				}
				if !reflect.DeepEqual(want.trace, got.trace) {
					t.Fatalf("case %d: trace events differ: %d reference, %d stepped", c, len(want.trace), len(got.trace))
				}
				if !slices.Equal(want.mem, got.mem) {
					t.Fatalf("case %d: received payload differs", c)
				}
				for _, l := range want.log {
					switch {
					case strings.Contains(l, " panic "):
						panics++
					case strings.Contains(l, " dies "):
						deaths++
					}
				}
			}
			if (row.protocol || row.kill) && panics == 0 {
				t.Errorf("no rank panicked: the row does not reach the failure paths")
			}
			if row.kill && deaths == 0 {
				t.Errorf("no rank died")
			}
		})
	}
}

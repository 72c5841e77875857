package sim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// The reference: Chan's blocking operations as they were written
// before their step forms existed, kept verbatim but for the ref
// prefix. TestChanStepsMatchBlocking runs random plans through them,
// through the blocking operations and through the step forms.

func refSend[T any](c *Chan[T], p *Proc, v T) {
	if c.recvq.len() > 0 && c.buf.len() == 0 {
		w := c.recvq.pop()
		w.val, w.ok = v, true
		w.disarm()
		w.p.wake(c.sim.now)
		return
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return
	}
	c.sendq.push(&sendWaiter[T]{p: p, val: v})
	p.block(blockedChanSend)
}

func refTrySend[T any](c *Chan[T], v T) bool {
	if c.recvq.len() > 0 && c.buf.len() == 0 {
		w := c.recvq.pop()
		w.val, w.ok = v, true
		w.disarm()
		w.p.wake(c.sim.now)
		return true
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return true
	}
	return false
}

func refRecv[T any](c *Chan[T], p *Proc) T {
	if c.buf.len() > 0 {
		v := c.buf.pop()
		if c.sendq.len() > 0 {
			sw := c.sendq.pop()
			c.buf.push(sw.val)
			sw.ok = true
			sw.disarm()
			sw.p.wake(c.sim.now)
		}
		return v
	}
	if c.sendq.len() > 0 {
		sw := c.sendq.pop()
		sw.ok = true
		sw.disarm()
		sw.p.wake(c.sim.now)
		return sw.val
	}
	rw := waiterOf[T](p, nil)
	c.recvq.push(rw)
	p.block(blockedChanRecv)
	if !rw.ok {
		panic("sim: chan recv woke without a value")
	}
	return release(rw)
}

func refTryRecv[T any](c *Chan[T]) (T, bool) {
	var zero T
	if c.buf.len() > 0 {
		v := c.buf.pop()
		if c.sendq.len() > 0 {
			sw := c.sendq.pop()
			c.buf.push(sw.val)
			sw.ok = true
			sw.disarm()
			sw.p.wake(c.sim.now)
		}
		return v, true
	}
	if c.sendq.len() > 0 {
		sw := c.sendq.pop()
		sw.ok = true
		sw.disarm()
		sw.p.wake(c.sim.now)
		return sw.val, true
	}
	return zero, false
}

func refRecvTimeout[T any](c *Chan[T], p *Proc, d Time) (T, bool) {
	var zero T
	if d < 0 {
		panic("sim: negative recv timeout")
	}
	if v, ok := refTryRecv(c); ok {
		return v, true
	}
	rw := waiterOf[T](p, c.sim.scheduleTimer(p, c.sim.now+d))
	c.recvq.push(rw)
	p.block(blockedChanRecvTimed)
	if rw.ok {
		return release(rw), true
	}
	for i, w := range c.recvq.items[c.recvq.head:] {
		if w == rw {
			c.recvq.removeAt(i)
			break
		}
	}
	release(rw)
	return zero, false
}

func refSendTimeout[T any](c *Chan[T], p *Proc, v T, d Time) bool {
	if d < 0 {
		panic("sim: negative send timeout")
	}
	if refTrySend(c, v) {
		return true
	}
	sw := &sendWaiter[T]{p: p, val: v, tm: c.sim.scheduleTimer(p, c.sim.now+d)}
	c.sendq.push(sw)
	p.block(blockedChanSendTimed)
	if sw.ok {
		return true
	}
	for i, w := range c.sendq.items[c.sendq.head:] {
		if w == sw {
			c.sendq.removeAt(i)
			break
		}
	}
	return false
}

// chanOp is one item of a process's channel plan.
type chanOp struct {
	kind  int  // opSleep, opSend or opRecv
	ch    int  // channel index
	d     Time // sleep length, or a timed operation's timeout
	timed bool
}

const (
	opSleep = iota
	opSend
	opRecv
)

// Ways to run a channel plan.
const (
	chanRef      = iota // the verbatim reference operations
	chanBlocking        // Send, Recv, SendTimeout, RecvTimeout
	chanSteps           // the step forms under SleepSteps
)

// chanStepper runs a plan through the step forms.
type chanStepper struct {
	p     *Proc
	chans []*Chan[int]
	plan  []chanOp
	k     int
	v     int
	note  func(k int, res string)
}

// Step completes the operation that slept or parked, then starts the
// next ones.
func (st *chanStepper) Step() Time {
	op := st.plan[st.k]
	c := st.chans[op.ch]
	switch op.kind {
	case opSleep:
		st.note(st.k, "slept")
	case opSend:
		st.note(st.k, fmt.Sprint("sent ", c.Sent(st.p)))
	default:
		ok := c.Received(st.p, &st.v)
		st.note(st.k, fmt.Sprint("got ", st.v, " ", ok))
	}
	st.k++
	return st.start()
}

// start starts operations from st.k on until one sleeps or parks.
func (st *chanStepper) start() Time {
	for ; st.k < len(st.plan); st.k++ {
		op := st.plan[st.k]
		if op.kind == opSleep {
			return op.d
		}
		c := st.chans[op.ch]
		v := st.p.id*100 + st.k
		st.v = 0
		var done bool
		switch {
		case op.kind == opSend && op.timed:
			done = c.SendTimeoutStep(st.p, &v, op.d)
		case op.kind == opSend:
			done = c.SendStep(st.p, &v)
		case op.timed:
			done = c.RecvTimeoutStep(st.p, &st.v, op.d)
		default:
			done = c.RecvStep(st.p, &st.v)
		}
		if !done {
			return StepPark
		}
		if op.kind == opSend {
			st.note(st.k, "sent true")
		} else {
			st.note(st.k, fmt.Sprint("got ", st.v, " true"))
		}
	}
	return StepDone
}

// chanResult is what a run of channel plans shows: the log of every
// operation's outcome and instant, the final clock bits, the dispatch
// count and the run's outcome (a deadlock names each blocked process
// and what it waits on). atDeadline counts the timed operations that
// ended at their deadline's instant, in time or not.
type chanResult struct {
	log        []string
	now        uint64
	events     uint64
	err        string
	atDeadline int
}

// chanRun runs every plan one way.
func chanRun(plans [][]chanOp, caps []int, way int, virtual bool) chanResult {
	s := New()
	chans := make([]*Chan[int], len(caps))
	for i, c := range caps {
		chans[i] = NewChan[int](s, c)
	}
	var res chanResult
	for i, plan := range plans {
		name := fmt.Sprint("p", i)
		s.Spawn(name, func(p *Proc) {
			note := func(k int, out string) {
				res.log = append(res.log, fmt.Sprintf("%s op%d %s @%x", name, k, out, math.Float64bits(p.Now())))
			}
			if way == chanSteps {
				// The first operations start inline, as a stepped
				// transport operation's do.
				st := &chanStepper{p: p, chans: chans, plan: plan, note: note}
				p.SleepSteps(st.start(), st)
			} else {
				for k, op := range plan {
					c := chans[op.ch]
					v := p.id*100 + k
					start := p.Now()
					switch {
					case op.kind == opSleep:
						p.Sleep(op.d)
						note(k, "slept")
					case op.kind == opSend && op.timed && way == chanRef:
						note(k, fmt.Sprint("sent ", refSendTimeout(c, p, v, op.d)))
					case op.kind == opSend && op.timed:
						note(k, fmt.Sprint("sent ", c.SendTimeout(p, v, op.d)))
					case op.kind == opSend && way == chanRef:
						refSend(c, p, v)
						note(k, "sent true")
					case op.kind == opSend:
						c.Send(p, v)
						note(k, "sent true")
					case op.timed && way == chanRef:
						got, ok := refRecvTimeout(c, p, op.d)
						note(k, fmt.Sprint("got ", got, " ", ok))
					case op.timed:
						got, ok := c.RecvTimeout(p, op.d)
						note(k, fmt.Sprint("got ", got, " ", ok))
					case way == chanRef:
						note(k, fmt.Sprint("got ", refRecv(c, p), " true"))
					default:
						note(k, fmt.Sprint("got ", c.Recv(p), " true"))
					}
					if op.timed && p.Now() == start+op.d {
						res.atDeadline++
					}
				}
			}
			res.log = append(res.log, fmt.Sprint(name, " resumed@", p.Now()))
			p.Yield()
			res.log = append(res.log, fmt.Sprint(name, "+", p.Now()))
		})
	}
	if virtual {
		s.Spawn("virtual", func(p *Proc) {
			p.Sleep(0.5)
			p.OpenVirtual()
			c := &chainVirtual{from: p.Now(), ts: []Time{p.Now() + 1, p.Now() + 1.5, p.Now() + 3}}
			c.origin, c.mark = p.Origin()
			c.src = p.AddVirtual(c, 1)
			p.WakeVirtual(c.src, int32(len(c.ts)-1))
			p.Park("virtual")
			res.log = append(res.log, fmt.Sprint("virtual@", p.Now()))
		})
	}
	res.err = fmt.Sprint(s.Run())
	res.now, res.events = math.Float64bits(s.Now()), s.EventsProcessed()
	return res
}

// TestChanStepsMatchBlocking: a random channel plan — sends and
// receives, plain and timed, on rendezvous and buffered channels, among
// sleeps on a coarse grid so that instants tie, and deadlines hit, miss
// and coincide with a hand-off — gives the same log of every outcome
// and instant, the same final clock bits, EventsProcessed and run
// outcome (a deadlock lists what each process is blocked on) through
// the verbatim reference operations, through the blocking operations
// and through the step forms under SleepSteps, beside a pending virtual
// wake or not.
func TestChanStepsMatchBlocking(t *testing.T) {
	for _, row := range []struct {
		name           string
		timed, virtual bool
	}{
		{"plain", false, false},
		{"timed", true, false},
		{"plain, virtual wake", false, true},
		{"timed, virtual wake", true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(row.name))))
			var missed, deadlocks, atDeadline int
			for c := 0; c < 400; c++ {
				procs := 2 + rng.Intn(5)
				caps := []int{0, 1 + rng.Intn(2)}
				plans := make([][]chanOp, procs)
				for i := range plans {
					for k := 1 + rng.Intn(8); k > 0; k-- {
						op := chanOp{kind: rng.Intn(3), ch: rng.Intn(len(caps)), d: Time(rng.Intn(4)) * 0.5}
						op.timed = row.timed && op.kind != opSleep && rng.Intn(2) == 0
						plans[i] = append(plans[i], op)
					}
				}
				want := chanRun(plans, caps, chanRef, row.virtual)
				for _, way := range []int{chanBlocking, chanSteps} {
					got := chanRun(plans, caps, way, row.virtual)
					if !slices.Equal(want.log, got.log) {
						t.Fatalf("case %d way %d: plans %v caps %v:\nreference\n%v\ngot\n%v", c, way, plans, caps, want.log, got.log)
					}
					if want.now != got.now || want.events != got.events || want.err != got.err {
						t.Fatalf("case %d way %d: reference ends at %x after %d events (%s), got %x after %d (%s)",
							c, way, want.now, want.events, want.err, got.now, got.events, got.err)
					}
				}
				for _, l := range want.log {
					if strings.Contains(l, " false @") {
						missed++
					}
				}
				if want.err != "<nil>" {
					deadlocks++
				}
				atDeadline += want.atDeadline
			}
			if deadlocks == 0 {
				t.Errorf("no plan deadlocked: blockedOn is not compared")
			}
			if row.timed && (missed == 0 || atDeadline == 0) {
				t.Errorf("%d timed operations missed their deadline and %d ended at its instant, want some of each", missed, atDeadline)
			}
		})
	}
}

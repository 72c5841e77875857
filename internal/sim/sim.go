// Package sim implements a deterministic process-oriented discrete-event
// simulator used as the execution substrate for the simulated multi-core
// node, kernel, and MPI runtime.
//
// Simulated processes are goroutines, but exactly one of them runs at any
// instant: a single scheduling token circulates between the processes and
// the scheduler. The synchronization primitives (Chan, Mutex) operate in
// virtual time with FIFO waiter queues and a (time, sequence) ordered
// event heap, so a simulation run is bit-for-bit reproducible.
//
// The dispatcher is built for throughput: the event heap is a concrete
// typed heap (no interface boxing per event), a process that yields hands
// the token directly to the next runnable process (one channel hand-off
// per dispatch instead of a round-trip through a scheduler goroutine),
// and the dominant self-wake Sleep pattern — no pending event before the
// sleeper's own wake-up — advances the clock in place with no heap or
// channel traffic at all. None of this changes virtual-time results or
// dispatch counts; TestDispatcherRegression pins that equivalence.
//
// Virtual time is a float64 measured in microseconds, matching the unit
// the reproduced paper reports.
package sim

import (
	"fmt"
	"sort"
)

// Time is a point in virtual time, in microseconds.
type Time = float64

// Simulation owns the virtual clock, the event heap and all processes.
// The zero value is not usable; call New.
type Simulation struct {
	now       Time
	seq       uint64
	events    eventHeap
	sched     chan schedMsg
	procs     []*Proc
	live      int // procs spawned and not yet finished
	running   bool
	processed uint64 // events dispatched, for stats/tests

	// Free lists: finished Proc shells (resume channel included) and
	// consumed timer objects are recycled instead of re-allocated, so a
	// harness that runs many simulations back to back (Reset between
	// runs) and the timed-wait hot path stay allocation-free in steady
	// state.
	procFree  []*Proc
	timerFree []*timer
}

// blockedOn labels for deadlock diagnostics, interned as package
// constants so blocking sites share one string value instead of
// repeating literals at every call site.
const (
	blockedSleep         = "sleep"
	blockedChanSend      = "chan send"
	blockedChanRecv      = "chan recv"
	blockedChanSendTimed = "chan send (timed)"
	blockedChanRecvTimed = "chan recv (timed)"
	blockedMutex         = "mutex lock"
)

// schedMsg returns the scheduling token to Run: either the heap drained
// with the sender holding the token, or the sender's body panicked.
type schedMsg struct {
	proc     *Proc
	panicVal any
}

// New returns an empty simulation at time zero.
func New() *Simulation {
	return &Simulation{sched: make(chan schedMsg)}
}

// Now returns the current virtual time in microseconds.
func (s *Simulation) Now() Time { return s.now }

// EventsProcessed returns the number of scheduler dispatches so far.
func (s *Simulation) EventsProcessed() uint64 { return s.processed }

// Proc is a simulated process. All methods must be called from the
// goroutine running the process body.
type Proc struct {
	sim       *Simulation
	id        int
	name      string
	resume    chan struct{}
	fn        func(p *Proc) // body, handed to the goroutine via the struct
	blockedOn string        // diagnostic: what primitive the proc is blocked on
	started   bool
	finished  bool
}

// ID returns the process's spawn index.
func (p *Proc) ID() int { return p.id }

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Simulation { return p.sim }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.sim.now }

type event struct {
	t   Time
	seq uint64
	p   *Proc
	tm  *timer // non-nil for cancellable timer events
}

// timer is a cancellable scheduled wake-up backing the timed channel
// waits. Cancelling does not remove the heap event; the dispatcher
// discards cancelled events unprocessed, so a cancelled timer costs one
// heap pop and nothing else. A fired timer is inert: cancelling it
// afterwards is a no-op.
type timer struct {
	stopped bool
}

func (tm *timer) cancel() { tm.stopped = true }

// scheduleTimer schedules a cancellable wake-up for p at time at. Unlike
// schedule, the resulting event can be disarmed before it fires, which is
// what lets a timed waiter be woken by either a peer or its deadline
// without ever receiving two resumes. Timer objects come off a free
// list: each timer backs exactly one heap event, and no waiter touches
// its timer after the event is popped (a disarm always happens before
// the peer's wake, and the timeout path never disarms), so the
// dispatcher can recycle it at pop time.
func (s *Simulation) scheduleTimer(p *Proc, at Time) *timer {
	var tm *timer
	if n := len(s.timerFree); n > 0 {
		tm = s.timerFree[n-1]
		s.timerFree[n-1] = nil
		s.timerFree = s.timerFree[:n-1]
	} else {
		tm = &timer{}
	}
	s.seq++
	s.events.push(event{t: at, seq: s.seq, p: p, tm: tm})
	return tm
}

// freeTimer returns a timer whose heap event has been consumed to the
// free list.
func (s *Simulation) freeTimer(tm *timer) {
	tm.stopped = false
	s.timerFree = append(s.timerFree, tm)
}

// eventHeap is a concrete binary min-heap ordered by (time, sequence).
// Hand-rolled rather than container/heap so that push and pop move event
// values directly instead of boxing them through interface{} — the heap
// is touched on every dispatch, and the boxing allocation dominated the
// simulator's allocation profile.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

// minShrinkCap is the backing-array size below which pop never shrinks:
// steady-state heaps (tens of events) keep one stable allocation.
const minShrinkCap = 1024

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{} // drop the *Proc reference
	q = q[:n]
	// Shrink a once-large backing array when occupancy falls to an
	// eighth of it, so a transient burst (a wide barrier fan-in, a
	// many-rank spawn wave) doesn't pin its high-water memory for the
	// rest of the process. Halving the capacity keeps the shrink
	// geometric — push doubles, pop halves, so no push/pop sequence can
	// oscillate across the boundary.
	if c := cap(q); c >= minShrinkCap && n <= c/8 {
		nq := make(eventHeap, n, c/2)
		copy(nq, q)
		q = nq
	}
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}

func (s *Simulation) schedule(p *Proc, at Time) {
	s.seq++
	s.events.push(event{t: at, seq: s.seq, p: p})
}

func (s *Simulation) popEvent() event { return s.events.pop() }

// dispatch outcomes for dispatchNext.
const (
	dispatchedNone  = iota // heap drained; caller still holds the token
	dispatchedOther        // token handed to another process
	dispatchedSelf         // earliest event was the caller's own: clock
	// advanced in place, token kept (timed waits whose own deadline is
	// the only pending event — handing the token through the resume
	// channel to oneself would deadlock the goroutine)
)

// dispatchNext pops the earliest event and hands the scheduling token to
// its process. self is the current token holder (nil when called from
// Run or a finishing process). Only the current token holder may call
// it.
func (s *Simulation) dispatchNext(self *Proc) int {
	for {
		if len(s.events) == 0 {
			return dispatchedNone
		}
		e := s.events.pop()
		if e.tm != nil {
			stopped := e.tm.stopped
			// A timer's single heap event is now consumed either way, and
			// no waiter dereferences its timer after this point, so the
			// object goes straight back on the free list.
			s.freeTimer(e.tm)
			if stopped {
				// Cancelled timer: discard without advancing the clock or
				// counting a dispatch, so timed waits that complete in time
				// leave no trace in either the timeline or the stats.
				continue
			}
		}
		if e.t < s.now {
			panic(fmt.Sprintf("sim: time went backwards: %g < %g", e.t, s.now))
		}
		s.now = e.t
		s.processed++
		e.p.blockedOn = ""
		if e.p == self {
			return dispatchedSelf
		}
		e.p.resume <- struct{}{}
		return dispatchedOther
	}
}

// yieldToken hands the token to the next runnable process (or back to
// the scheduler when the heap is empty) and parks until resumed. When
// the next event is the caller's own wake-up it returns immediately
// without parking.
func (p *Proc) yieldToken() {
	s := p.sim
	switch s.dispatchNext(p) {
	case dispatchedSelf:
		return
	case dispatchedNone:
		s.sched <- schedMsg{proc: p}
	}
	<-p.resume
}

// Spawn registers a new process whose body is fn. If called before Run,
// the process starts at time zero; if called from a running process, it
// starts at the current virtual time. Spawn order breaks scheduling ties.
//
// Proc shells (struct plus resume channel) come off the free list that
// Reset fills, so a harness running many simulations back to back only
// pays one goroutine start per spawn; the body travels through the Proc
// struct rather than a captured closure.
func (s *Simulation) Spawn(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(s.procFree); n > 0 {
		p = s.procFree[n-1]
		s.procFree[n-1] = nil
		s.procFree = s.procFree[:n-1]
		p.id = len(s.procs)
		p.name = name
		p.blockedOn = ""
		p.started, p.finished = false, false
	} else {
		p = &Proc{sim: s, id: len(s.procs), name: name, resume: make(chan struct{})}
	}
	p.fn = fn
	s.procs = append(s.procs, p)
	s.live++
	go p.main()
	s.schedule(p, s.now)
	return p
}

// main is the goroutine body of a spawned process: wait for the first
// token delivery, run fn, then pass the token on and exit.
func (p *Proc) main() {
	<-p.resume
	p.started = true
	fn := p.fn
	p.fn = nil
	panicked := p.runBody(fn)
	p.finished = true
	s := p.sim
	s.live--
	if panicked != nil {
		s.sched <- schedMsg{proc: p, panicVal: panicked}
		return
	}
	if s.dispatchNext(nil) == dispatchedNone {
		s.sched <- schedMsg{proc: p}
	}
}

// runBody runs fn, converting a body panic into a value for Run to
// re-raise.
func (p *Proc) runBody(fn func(*Proc)) (panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	fn(p)
	return nil
}

// Reset returns the simulation to an empty time-zero state while
// keeping allocated capacity: the event-heap backing array stays, and
// finished Proc shells (resume channels included) plus any timers still
// parked in dropped events go to the free lists for the next run.
// Reset panics if any spawned process has not finished — a live
// process's goroutine still references the state being recycled, so
// only a cleanly drained simulation (Run returned nil) may be reused.
func (s *Simulation) Reset() {
	if s.running {
		panic("sim: Reset during Run")
	}
	if s.live != 0 {
		panic(fmt.Sprintf("sim: Reset with %d unfinished processes", s.live))
	}
	for i := range s.events {
		if tm := s.events[i].tm; tm != nil {
			s.freeTimer(tm)
		}
		s.events[i] = event{}
	}
	s.events = s.events[:0]
	for i, p := range s.procs {
		s.procFree = append(s.procFree, p)
		s.procs[i] = nil
	}
	s.procs = s.procs[:0]
	s.now, s.seq, s.processed = 0, 0, 0
}

// DeadlockError reports that the event heap drained while processes were
// still blocked on synchronization primitives.
type DeadlockError struct {
	Time    Time
	Blocked []string // "name: blockedOn" for each stuck process
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%.3fus, %d blocked: %v", e.Time, len(e.Blocked), e.Blocked)
}

// Run dispatches events until every process has finished. It returns a
// *DeadlockError if processes remain blocked with no pending events, and
// re-panics any panic raised inside a process body.
//
// Run seeds the token by dispatching the first event; after that the
// token passes directly from process to process and only returns here
// when the heap drains or a process panics.
func (s *Simulation) Run() error {
	if s.running {
		panic("sim: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.dispatchNext(nil) != dispatchedNone {
		msg := <-s.sched
		if msg.panicVal != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", msg.proc.name, msg.panicVal))
		}
	}
	if s.live > 0 {
		var stuck []string
		for _, p := range s.procs {
			if p.started && !p.finished {
				stuck = append(stuck, p.name+": "+p.blockedOn)
			}
		}
		sort.Strings(stuck)
		return &DeadlockError{Time: s.now, Blocked: stuck}
	}
	return nil
}

// block parks the calling process with no scheduled wake-up. Some other
// process must call wake. why is recorded for deadlock diagnostics.
func (p *Proc) block(why string) {
	p.blockedOn = why
	p.yieldToken()
}

// wake schedules a blocked process to resume at time at.
func (p *Proc) wake(at Time) { p.sim.schedule(p, at) }

// Sleep advances the process's virtual time by d microseconds. d must be
// non-negative; Sleep(0) yields to other processes scheduled at the same
// instant.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %g", d))
	}
	s := p.sim
	t := s.now + d
	// Fast path: no pending event precedes our wake-up (ties go to the
	// earlier-scheduled event, which any pending event is), so the token
	// would come straight back — advance the clock in place. This is the
	// dominant dispatch pattern in the kernel's chunked copy loops.
	if len(s.events) == 0 || t < s.events[0].t {
		s.now = t
		s.processed++
		return
	}
	s.schedule(p, t)
	p.blockedOn = blockedSleep
	p.yieldToken()
}

// Yield lets other processes scheduled at the current instant run.
func (p *Proc) Yield() { p.Sleep(0) }

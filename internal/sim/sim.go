// Package sim implements a deterministic process-oriented discrete-event
// simulator used as the execution substrate for the simulated multi-core
// node, kernel, and MPI runtime.
//
// Each simulated process runs as a coroutine (iter.Pull) driven by
// Simulation.Run, and exactly one of them runs at any instant: a process
// that blocks yields back to Run, which resumes whichever process the
// event heap pops next. The synchronization primitives (Chan, Mutex)
// operate in virtual time with FIFO waiter queues and a (time, sequence)
// ordered event heap, so a simulation run is bit-for-bit reproducible.
//
// The dispatcher is built for throughput: the event heap is a concrete
// typed heap (no interface boxing per event), a hand-off between
// processes is a runtime coroutine switch rather than a channel send and
// a goroutine park, coroutines come from a process-wide pool of idle
// workers so a spawn starts no goroutine and regrows no stack in steady
// state, and a sleep with no pending event before its own wake-up
// advances the clock in place with no heap or coroutine traffic at all.
// A run of sleeps and channel waits known as a state machine — the
// kernel's CMA op, one lock+pin and one copy sleep per page chunk; a
// shared-memory message operation, a copy sleep and a queue wait per
// cell; a run of in-process block copies — goes through SleepSteps:
// Run calls its steps at each of the process's wake-ups on its own
// stack, so a contended op costs its coroutine one switch in and one
// out, not two per sleep or wait. A step waits on a Chan through the
// step forms of its operations (SendStep, RecvStep and the timed
// pair), which queue the process exactly as the blocking operations
// do. None of this changes virtual-time results or dispatch counts;
// TestDispatcherRegression, TestSleepStepsMatchesSleep and
// TestChanStepsMatchBlocking pin that equivalence.
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
	next      *Proc // process the last dispatch picked; Run resumes it
	procs     []*Proc
	live      int // procs spawned and not yet finished
	running   bool
	processed uint64 // events dispatched, for stats/tests

	// panicked is the process whose body panicked, with the value in
	// panicVal; Run re-raises it.
	panicked *Proc
	panicVal any

	// Free lists: finished Proc shells and consumed timer objects are
	// recycled instead of re-allocated, so a harness that runs many
	// simulations back to back (Reset between runs) and the timed-wait
	// hot path stay allocation-free in steady state.
	procFree  []*Proc
	timerFree []*timer

	lin lineage // closed forms' virtual wakes, and the lines they are ordered by
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

// New returns an empty simulation at time zero.
func New() *Simulation { return &Simulation{} }

// Now returns the current virtual time in microseconds.
func (s *Simulation) Now() Time { return s.now }

// EventsProcessed returns the number of scheduler dispatches so far.
func (s *Simulation) EventsProcessed() uint64 { return s.processed }

// Proc is a simulated process. All methods must be called from the
// coroutine running the process body.
type Proc struct {
	sim       *Simulation
	id        int
	name      string
	w         *worker       // coroutine running the body, from the first dispatch until the body ends
	fn        func(p *Proc) // body, handed to the worker via the struct
	blockedOn string        // diagnostic: what primitive the proc is blocked on
	started   bool
	finished  bool
	// recvWaiter and sendWaiter are the *recvWaiter[T] and
	// *sendWaiter[T] the process parks with in a Chan receive or send,
	// kept for its next one (see waiterOf).
	recvWaiter, sendWaiter any
	// steps is the Stepper Run drives while the coroutine waits in
	// SleepSteps; nil otherwise.
	steps Stepper
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

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
	if s.lin.pending > 0 {
		s.lin.scheduled(s, at)
	}
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
	if s.lin.pending > 0 {
		s.lin.scheduled(s, at)
	}
}

func (s *Simulation) popEvent() event { return s.events.pop() }

// dispatchNext pops the earliest event, advances the clock to it and
// records its process in s.next for Run to resume; s.next stays nil when
// the heap is empty. self is the running process (nil when called from
// Run or a finishing process). When the event is self's own wake-up
// (a timed wait whose deadline is the only pending event) dispatchNext
// reports true instead and self simply keeps running. Only Run or the
// running process may call it.
func (s *Simulation) dispatchNext(self *Proc) (own bool) {
	for {
		if len(s.lin.wakes) > 0 && s.wakeFirst() {
			p := s.runWake()
			if p == self {
				return true
			}
			s.next = p
			return false
		}
		if len(s.events) == 0 {
			return false
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
		if s.lin.pending > 0 {
			s.lin.ran(s, e.seq)
		}
		e.p.blockedOn = ""
		if e.p == self {
			return true
		}
		s.next = e.p
		return false
	}
}

// yieldToken dispatches the next event and, unless it is the caller's
// own wake-up, suspends the caller's coroutine back to Run, which
// resumes whichever process the dispatch picked.
func (p *Proc) yieldToken() {
	if !p.sim.dispatchNext(p) {
		p.w.suspend()
	}
}

// Spawn registers a new process whose body is fn. If called before Run,
// the process starts at time zero; if called from a running process, it
// starts at the current virtual time. Spawn order breaks scheduling ties.
//
// Proc shells come off the free list that Reset fills, and the
// coroutine that runs the body comes off the process-wide worker pool at
// the process's first dispatch, so a harness running many simulations
// back to back allocates nothing per spawn; the body travels through the
// Proc struct rather than a captured closure.
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
		p = &Proc{sim: s, id: len(s.procs), name: name}
	}
	p.fn = fn
	s.procs = append(s.procs, p)
	s.live++
	s.schedule(p, s.now)
	return p
}

// resume runs p until it next suspends or its body ends. The first
// resume binds p to a pooled worker; a finished process hands its worker
// back to the pool.
func (p *Proc) resume() {
	w := p.w
	if w == nil {
		w = getWorker()
		w.p = p
		p.w = w
		p.started = true
	}
	w.next()
	if p.finished {
		p.w = nil
		putWorker(w)
	}
}

// run is the worker-side life of a process: run the body, then account
// for its end and dispatch the next event for Run to resume. A panicking
// body is recorded for Run to re-raise instead. A body unwound by Run's
// teardown (worker stopped) leaves the simulation untouched.
func (p *Proc) run() {
	fn := p.fn
	p.fn = nil
	panicked := p.runBody(fn)
	if p.w.stopped {
		return
	}
	p.finished = true
	s := p.sim
	s.live--
	if panicked != nil {
		s.panicked, s.panicVal = p, panicked
		return
	}
	s.dispatchNext(nil)
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
// finished Proc shells plus any timers still parked in dropped events go
// to the free lists for the next run. Reset panics if any spawned
// process has not finished, so only a cleanly drained simulation (Run
// returned nil) may be reused.
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
	s.lin.reset()
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
// Run is the driver loop: it resumes the process each dispatch picks,
// and that process runs until it blocks or ends, dispatching the next
// event before it suspends. A process waiting in SleepSteps is not
// resumed at its wake-ups: Run calls its Stepper instead, and resumes
// it once the stepper is done. When Run fails it stops the coroutine of
// every unfinished process, so a failed simulation strands no goroutine.
func (s *Simulation) Run() error {
	if s.running {
		panic("sim: Run called reentrantly")
	}
	s.running = true
	defer func() { s.running = false }()
	s.dispatchNext(nil)
	for p := s.next; p != nil; p = s.next {
		s.next = nil
		if p.steps == nil || s.runSteps(p) {
			p.resume()
		}
		if q := s.panicked; q != nil {
			v := s.panicVal
			s.panicked, s.panicVal = nil, nil
			s.halt()
			panic(fmt.Sprintf("sim: process %q panicked: %v", q.name, v))
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
		err := &DeadlockError{Time: s.now, Blocked: stuck}
		s.halt()
		return err
	}
	return nil
}

// halt stops the worker of every started, unfinished process. Each
// stopped body unwinds (its deferred calls run) and its worker is
// discarded rather than pooled.
func (s *Simulation) halt() {
	for _, p := range s.procs {
		p.steps = nil
		if w := p.w; w != nil {
			w.halt()
			p.w = nil
		}
	}
	s.next = nil
}

// block parks the calling process with no scheduled wake-up. Some other
// process must call wake. why is recorded for deadlock diagnostics.
func (p *Proc) block(why string) {
	p.blockedOn = why
	p.yieldToken()
}

// wake schedules a blocked process to resume at time at.
func (p *Proc) wake(at Time) { p.sim.schedule(p, at) }

// Park blocks the calling process with no scheduled wake-up until a
// WakeVirtual on it runs; why labels the wait in deadlock diagnostics.
func (p *Proc) Park(why string) { p.block(why) }

// Sleep advances the process's virtual time by d microseconds. d must be
// non-negative; Sleep(0) yields to other processes scheduled at the same
// instant.
func (p *Proc) Sleep(d Time) {
	if !p.sleepFor(d) {
		p.w.suspend()
	}
}

// sleepFor schedules p's wake-up d from now and dispatches the next
// event. It reports true when that event is p's own, so p keeps
// running; otherwise the event's process is in s.next and p must wait.
func (p *Proc) sleepFor(d Time) (own bool) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %g", d))
	}
	s := p.sim
	t := s.now + d
	// Fast path: no pending event precedes our wake-up (ties go to the
	// earlier-scheduled event, which any pending event is), so the
	// dispatch would pick this process again — advance the clock in
	// place.
	if (len(s.events) == 0 || t < s.events[0].t) && (len(s.lin.wakes) == 0 || t < s.lin.wakes[0].t) {
		if s.lin.pending > 0 {
			s.lin.continued(s, t)
		}
		s.now = t
		s.processed++
		return true
	}
	s.schedule(p, t)
	p.blockedOn = blockedSleep
	return s.dispatchNext(p)
}

// Stepper is a run of sleeps a process hands the dispatcher with
// SleepSteps, as a state machine: the dispatcher calls Step at each of
// the process's wake-ups, so the run costs the process's coroutine one
// suspension and one resumption however many sleeps it takes.
type Stepper interface {
	// Step runs the work due at the current instant and returns what
	// the process does next: sleep that many microseconds (≥ 0) and
	// Step again, StepPark once Mutex.Acquire or a Chan step form has
	// queued it, or StepDone.
	Step() Time
}

// Step outcomes other than a sleep.
const (
	StepDone Time = -1 // the run is over; the process's body continues
	StepPark Time = -2 // wait with no event until a Mutex or Chan hand-off (or a timed wait's deadline) wakes the process
)

// SleepSteps sleeps d, then runs st until a Step returns StepDone.
// Every sleep and park takes exactly the path Sleep and Mutex.Lock
// take — the same in-place fast path, event schedule and dispatch
// count — so virtual time, event order and EventsProcessed are those
// of the same run written as a Sleep loop. A step due at the
// process's own next event runs inline; once another process's event
// comes first, the coroutine suspends and Run drives the remaining
// steps on its own stack, resuming the process when st is done. A
// panicking step is re-raised by Run as the process's panic.
func (p *Proc) SleepSteps(d Time, st Stepper) {
	if !p.advance(d, st) {
		p.steps = st
		p.w.suspend()
	}
}

// advance acts on Step outcome d and keeps stepping st while p stays
// the running process. It reports true once st is done, and false
// when p must wait for a later event (which s.next then names).
func (p *Proc) advance(d Time, st Stepper) bool {
	for {
		switch d {
		case StepDone:
			return true
		case StepPark:
			if !p.sim.dispatchNext(p) {
				return false
			}
		default:
			if !p.sleepFor(d) {
				return false
			}
		}
		d = st.Step()
	}
}

// runSteps runs the stepper of p, whose wake-up Run has just popped, on
// Run's stack. It reports true once the stepper is done and p's
// coroutine is to resume; a panicking step is recorded for Run to
// re-raise as p's panic.
func (s *Simulation) runSteps(p *Proc) (done bool) {
	defer func() {
		if r := recover(); r != nil {
			s.panicked, s.panicVal = p, r
			done = false
		}
	}()
	st := p.steps
	if !p.advance(st.Step(), st) {
		return false
	}
	p.steps = nil
	return true
}

// Yield lets other processes scheduled at the current instant run.
func (p *Proc) Yield() { p.Sleep(0) }

// Package trace is the structured event-tracing subsystem for the
// simulated MPI stack: a Recorder attached to a simulation collects
// timestamped spans, instant events, counter samples and matched
// message edges in virtual time, turning every deterministic run into
// an inspectable timeline.
//
// Everything the paper's ftrace methodology observes on real hardware
// has a counterpart here: per-CMA-op spans broken into the five kernel
// phases (syscall / permission / lock / pin / copy), the sampled
// contention factor γ(c) per page chunk, mm-lock hold concurrency over
// time, shared-memory channel traffic, throttle-token hand-offs and
// per-rank collective steps.
//
// The Recorder is nil-safe: every method no-ops on a nil receiver, so
// instrumentation sites in kernel/shm/mpi/core cost nothing when
// tracing is disabled — no allocation, and no virtual-time perturbation
// ever (recording never sleeps, so an enabled run's simulated latencies
// are bit-identical to a disabled run's).
//
// Analysis passes (critical-path extraction, mm-lock contention
// timelines, per-rank utilisation) live in analysis.go; exporters
// (Chrome trace-event JSON for chrome://tracing / Perfetto, aligned
// text summaries) in chrome.go and text.go.
package trace

import "fmt"

// Clock supplies virtual time; *sim.Simulation satisfies it.
type Clock interface {
	Now() float64
}

// Cat classifies an event by the subsystem that emitted it.
type Cat string

// The event categories emitted by the instrumented stack.
const (
	CatColl     Cat = "coll"     // collective algorithm phases (internal/core)
	CatCMA      Cat = "cma"      // kernel-assisted copy ops (internal/kernel)
	CatLock     Cat = "lock"     // mm-lock acquire/release and concurrency
	CatShm      Cat = "shm"      // shared-memory transport (internal/shm)
	CatMPI      Cat = "mpi"      // pt2pt protocol and barrier (internal/mpi)
	CatThrottle Cat = "throttle" // throttle-token hand-offs (internal/core)
	CatFault    Cat = "fault"    // injected faults and degraded-mode reactions (internal/fault)
	CatLiveness Cat = "liveness" // failure detection, agreement and shrink (internal/liveness)
	CatNet      Cat = "net"      // network-fabric transfers and link contention (internal/cluster)
)

// Kind distinguishes the event shapes a Recorder stores.
type Kind uint8

// The event kinds.
const (
	// KindSpan is a duration [Start, End] on one lane.
	KindSpan Kind = iota
	// KindInstant is a point event at Start.
	KindInstant
	// KindCounter samples Value at Start (e.g. mm-lock holders).
	KindCounter
	// KindEdge is a matched cross-lane message: posted by lane From at
	// SendTs, consumable at ReadyTs, consumed by lane Lane over
	// [Start, End] (Start = when the receiver began waiting). Waited
	// reports whether the receiver actually blocked on the sender —
	// the property critical-path extraction follows.
	KindEdge
)

// Arg is one key/value annotation on an event.
type Arg struct {
	Key string
	Val float64
}

// F builds an Arg (shorthand for instrumentation sites).
func F(key string, val float64) Arg { return Arg{Key: key, Val: val} }

// Event is one recorded trace entry. Which fields are meaningful
// depends on Kind; see the Kind constants.
type Event struct {
	Kind  Kind
	Cat   Cat
	Name  string
	Lane  int // owning lane (rank); negative lanes are unregistered pids
	Start float64
	End   float64

	// Edge fields.
	From    int
	SendTs  float64
	ReadyTs float64
	Waited  bool

	// Counter value.
	Value float64

	Args []Arg
}

// Arg returns the named annotation and whether it is present.
func (e *Event) Arg(key string) (float64, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Val, true
		}
	}
	return 0, false
}

// SpanID identifies an open span returned by Begin. The zero value is
// not a valid open span; a nil Recorder returns NoSpan.
type SpanID int

// NoSpan is the SpanID a nil Recorder returns; End(NoSpan) no-ops.
const NoSpan SpanID = -1

// Lane metadata registered via RegisterLane.
type Lane struct {
	ID   int
	Name string
	Pid  int // simulated OS pid behind the lane, 0 if none
}

// Recorder collects events for one simulation. Create with New (bound
// to a clock) or NewUnbound (bound later by the node it is attached
// to). A Recorder must not be shared between simulations.
//
// All methods are safe on a nil *Recorder, which is the disabled state.
// The simulator runs exactly one process coroutine at a time, so the
// Recorder needs no internal locking: each coroutine switch between a
// process and Simulation.Run establishes happens-before between all
// recording sites, and the worker pool's mutex orders a coroutine's use
// by one simulation before its reuse by another on a parallel
// goroutine.
type Recorder struct {
	clock  Clock
	events []Event
	lanes  []Lane
	byPid  map[int]int // pid -> lane id
}

// NewUnbound returns a Recorder with no clock; it must be bound (by
// attaching it to a kernel node) before anything is recorded.
func NewUnbound() *Recorder { return &Recorder{byPid: map[int]int{}} }

// Bind sets the recorder's clock. Attaching a recorder to a node binds
// it to the node's simulation; binding an already-bound recorder to a
// different clock panics (a recorder holds one simulation's timeline).
func (r *Recorder) Bind(clock Clock) {
	if r == nil {
		return
	}
	if r.clock != nil && r.clock != clock && len(r.events) > 0 {
		panic("trace: recorder already bound to a different simulation")
	}
	r.clock = clock
}

// Enabled reports whether the recorder records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

func (r *Recorder) now() float64 {
	if r.clock == nil {
		panic("trace: recorder not bound to a simulation")
	}
	return r.clock.Now()
}

// RegisterLane names a lane (rank) and associates it with a simulated
// pid so kernel-level events land on the same timeline row as the
// rank's MPI-level events.
func (r *Recorder) RegisterLane(id int, name string, pid int) {
	if r == nil {
		return
	}
	r.lanes = append(r.lanes, Lane{ID: id, Name: name, Pid: pid})
	if pid != 0 {
		r.byPid[pid] = id
	}
}

// Lanes returns the registered lanes in registration order.
func (r *Recorder) Lanes() []Lane {
	if r == nil {
		return nil
	}
	return r.lanes
}

// LaneForPid maps a simulated pid to its registered lane; unregistered
// pids get a stable negative pseudo-lane so their events are kept
// rather than dropped.
func (r *Recorder) LaneForPid(pid int) int {
	if r == nil {
		return NoLane
	}
	if l, ok := r.byPid[pid]; ok {
		return l
	}
	return -pid
}

// NoLane is the lane a nil recorder reports.
const NoLane = -1 << 30

// Begin opens a span on lane and returns its id; close it with End.
// Spans on one lane must nest (the instrumented stack guarantees this:
// collective step > MPI op > shm/CMA op > chunk).
func (r *Recorder) Begin(lane int, cat Cat, name string, args ...Arg) SpanID {
	if r == nil {
		return NoSpan
	}
	r.events = append(r.events, Event{
		Kind: KindSpan, Cat: cat, Name: name, Lane: lane,
		Start: r.now(), End: -1, Args: args,
	})
	return SpanID(len(r.events) - 1)
}

// End closes a span opened with Begin, appending any extra args.
func (r *Recorder) End(id SpanID, args ...Arg) {
	if r == nil || id == NoSpan {
		return
	}
	e := &r.events[id]
	if e.Kind != KindSpan || e.End >= 0 {
		panic(fmt.Sprintf("trace: End(%d) on a non-open span", id))
	}
	e.End = r.now()
	e.Args = append(e.Args, args...)
}

// Instant records a point event.
func (r *Recorder) Instant(lane int, cat Cat, name string, args ...Arg) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Kind: KindInstant, Cat: cat, Name: name, Lane: lane,
		Start: r.now(), End: -1, Args: args,
	})
}

// Counter samples a named counter (e.g. mm-lock holders on a target
// process's lane).
func (r *Recorder) Counter(lane int, cat Cat, name string, value float64) {
	if r == nil {
		return
	}
	now := r.now()
	r.events = append(r.events, Event{
		Kind: KindCounter, Cat: cat, Name: name, Lane: lane,
		Start: now, End: -1, Value: value,
	})
}

// Edge records a matched cross-lane message on the receiver's side.
// from/to are lanes; sendTs is when the sender finished posting,
// readyTs when the message became consumable (arrival plus transport
// latency), waitStart when the receiver began waiting, recvEnd when the
// receiver finished consuming. The receiver blocked on the sender iff
// readyTs > waitStart; that flag drives critical-path extraction.
func (r *Recorder) Edge(from, to int, cat Cat, name string, sendTs, readyTs, waitStart, recvEnd float64, args ...Arg) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Kind: KindEdge, Cat: cat, Name: name, Lane: to, From: from,
		SendTs: sendTs, ReadyTs: readyTs, Start: waitStart, End: recvEnd,
		Waited: readyTs > waitStart, Args: args,
	})
}

// Events returns the recorded events in recording order. Span events
// appear at their Begin position; a span still open has End < Start.
// The returned slice is the recorder's own storage — callers must not
// mutate it.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.events)
}

package sim

import "fmt"

// Lineage: ordering events a closed form costs without running them.
//
// The simulator runs the events of one instant in the order they were
// scheduled, which is the order their schedulers ran in: two events of
// one instant compare as the events that scheduled them do, back until
// the instants differ or the two lines meet at one event, whose
// children run in the order it scheduled them.
//
// A closed form (shm's Allgather64) computes a batch of events without
// running them — a Virtual lineage — and wakes each process at the
// instant of its last virtual event with WakeVirtual. Such a wake must
// run among the real events of its instant exactly where that last
// event would have. The closed form pins the events its processes
// entered it in (Origin), where its lineage starts. While virtual wakes
// are pending the simulation records the line of every event it
// schedules or runs (a node per event, in an arena dropped when the last
// virtual wake has run), keeps the virtual wakes in a heap of their own,
// and when a virtual wake and a real event share the earliest instant it
// walks both lines back to decide which runs first. Ties between real
// events keep the sequence order, which the walk reproduces, so the main
// heap is untouched.
//
// An event scheduled before the recording began (before the closed form
// registered its lineage) ran, by the walk, before every recorded and
// every virtual event of its instant. That is exact for every line the
// registered events can meet: the wakes' lines descend from events after
// the last entry, so a line leaves the recording only where its scheduler
// ran before them. Only a real line that mirrors a virtual one instant
// for instant back past the last entry would need more, and no workload
// runs one: identical closed forms side by side compare their lines
// instant by instant and then their pinned entries (wakeBefore).

// A Ref names one event of a line: a recorded real event (Src
// refNode), an event of a registered Virtual lineage (Src ≥
// refVirtual), or none (the zero Ref).
type Ref struct {
	Src int32
	I   int32
}

const (
	refPre     = -1 // an event scheduled before the recording began
	refNode    = 1  // I indexes the arena, offset by its base
	refPin     = 2  // I indexes the pinned entry events
	refVirtual = 3  // Src − refVirtual indexes the registered lineages
)

// preRef stands for every event that ran before the recording began:
// each ran before every recorded and every virtual event.
var preRef = Ref{Src: refPre}

// Virtual is a batch of events a closed form costs without running
// them.
type Virtual interface {
	// Event returns virtual event i's instant, the event that scheduled
	// it, and its place among that event's children (lower runs first).
	Event(i int32) (t Time, parent Ref, order uint64)
	// Before reports whether final event i runs before final event j,
	// both woken with WakeVirtual.
	Before(i, j int32) bool
	// Line returns the instants along final event i's line — i's, its
	// scheduler's, and so on back to the first event outside the
	// lineage, whose instant is the last — and that event.
	Line(i int32) ([]Time, Ref)
	// Release is called once no event refers to the lineage any more.
	Release()
}

// linNode is one recorded real event.
type linNode struct {
	t      Time
	key    uint64 // dispatch number, once it has run (Simulation.processed)
	parent Ref
	order  uint64 // place among its parent's children
}

// vwake is a virtual wake: p resumes at virtual event ref, at t.
type vwake struct {
	t   Time
	p   *Proc
	ref Ref
}

// lineage is a simulation's recording state.
type lineage struct {
	open    int    // closed forms entered and not yet registered
	pending int    // virtual wakes not yet run; > 0 while recording
	base    int32  // arena index of nodes[0]; Refs below it are stale
	seqBase uint64 // sequence number of the first event scheduled while recording
	nodeOf  []int32
	nodes   []linNode
	pins    []linNode // entry events of open closed forms
	virtual []Virtual
	wakes   []vwake // heap by (instant, line)
	cur     Ref     // the running event, or none
}

// OpenVirtual notes a closed form's first entry; every OpenVirtual is
// matched by one AddVirtual.
func (p *Proc) OpenVirtual() { p.sim.lin.open++ }

// Origin pins the running event, which a virtual event scheduled in it
// names as its parent, and returns its Ref and the place that virtual
// event takes among the running event's children.
func (p *Proc) Origin() (Ref, uint64) {
	s := p.sim
	l := &s.lin
	pin := linNode{t: s.now, key: s.processed, parent: preRef}
	if l.pending > 0 {
		pin.parent = l.step(l.current(s)).parent
	}
	l.pins = append(l.pins, pin)
	return Ref{Src: refPin, I: int32(len(l.pins) - 1)}, 2 * uint64(len(l.nodes))
}

// AddVirtual registers v, closing one OpenVirtual, and returns the Src
// its events are named by. It must be followed at once by wakes calls
// to WakeVirtual; lines are recorded until they have all run.
func (p *Proc) AddVirtual(v Virtual, wakes int) int32 {
	l := &p.sim.lin
	if l.pending == 0 {
		l.seqBase, l.cur = p.sim.seq+1, Ref{}
	}
	l.virtual = append(l.virtual, v)
	l.open--
	l.pending += wakes
	return refVirtual + int32(len(l.virtual)-1)
}

// WakeVirtual schedules a parked process (or the caller, about to park)
// to resume at final, a virtual event of lineage src, at its instant.
func (p *Proc) WakeVirtual(src, final int32) {
	s := p.sim
	t, _, _ := s.lin.virtual[src-refVirtual].Event(final)
	if t < s.now {
		panic(fmt.Sprintf("sim: virtual wake at %g before now %g", t, s.now))
	}
	s.lin.pushWake(vwake{t: t, p: p, ref: Ref{Src: src, I: final}})
}

// Before reports whether a runs before b, two events of one instant (a
// virtual event against the running one, say).
func (p *Proc) Before(a, b Ref) bool {
	l := &p.sim.lin
	x, y := l.step(a), l.step(b)
	if x.t != y.t {
		return x.t < y.t
	}
	return l.walk(x, y)
}

// scheduled records the event just scheduled, for t, by the running
// one; nodeOf maps its sequence number to its node.
func (l *lineage) scheduled(s *Simulation, t Time) {
	l.nodeOf = append(l.nodeOf, l.add(s, linNode{t: t}))
}

// add records n as a child of the running event and returns its index.
func (l *lineage) add(s *Simulation, n linNode) int32 {
	n.parent = l.current(s)
	n.order = 2*uint64(len(l.nodes)) + 1
	l.nodes = append(l.nodes, n)
	return l.base + int32(len(l.nodes)-1)
}

// ran notes that the real event with sequence number seq runs now.
func (l *lineage) ran(s *Simulation, seq uint64) {
	l.cur = Ref{}
	if seq >= l.seqBase {
		i := l.nodeOf[seq-l.seqBase]
		l.nodes[i-l.base].key = s.processed
		l.cur = Ref{Src: refNode, I: i}
	}
}

// continued notes a Sleep about to advance the clock in place to t: a
// new event scheduled by the running one and run at once. It is called
// before the clock moves, so that the running event, if it was
// scheduled before the recording began, is recorded at its own instant.
func (l *lineage) continued(s *Simulation, t Time) {
	i := l.add(s, linNode{t: t, key: s.processed + 1})
	l.cur = Ref{Src: refNode, I: i}
}

// current returns the running event's Ref, recording a node for it if
// it was scheduled before the recording began.
func (l *lineage) current(s *Simulation) Ref {
	if !l.live(l.cur) {
		l.nodes = append(l.nodes, linNode{t: s.now, key: s.processed, parent: preRef})
		l.cur = Ref{Src: refNode, I: l.base + int32(len(l.nodes)-1)}
	}
	return l.cur
}

// live reports whether r names a recorded, pinned or registered event.
func (l *lineage) live(r Ref) bool {
	switch {
	case r.Src == refNode:
		return r.I >= l.base
	case r.Src == refPin:
		return int(r.I) < len(l.pins)
	case r.Src >= refVirtual:
		return int(r.Src-refVirtual) < len(l.virtual)
	}
	return false
}

// wakeFirst reports whether the earliest virtual wake runs before the
// earliest real event. Cancelled timers at the top of the real heap are
// dropped first, as dispatch would drop them.
func (s *Simulation) wakeFirst() bool {
	for len(s.events) > 0 && s.events[0].tm != nil && s.events[0].tm.stopped {
		s.freeTimer(s.events.pop().tm)
	}
	if len(s.events) == 0 {
		return true
	}
	w, e := &s.lin.wakes[0], &s.events[0]
	if w.t != e.t {
		return w.t < e.t
	}
	l := &s.lin
	y := step{t: e.t, real: true, parent: preRef}
	if e.seq >= l.seqBase {
		y = l.step(Ref{Src: refNode, I: l.nodeOf[e.seq-l.seqBase]})
		y.real = false // not yet run: no dispatch number to compare
	}
	return l.walk(l.step(w.ref), y)
}

// runWake dispatches the earliest virtual wake, which wakeFirst chose.
func (s *Simulation) runWake() *Proc {
	l := &s.lin
	w := l.popWake()
	if w.t < s.now {
		panic(fmt.Sprintf("sim: time went backwards: %g < %g", w.t, s.now))
	}
	s.now = w.t
	s.processed++
	w.p.blockedOn = ""
	l.cur = w.ref
	if l.pending--; l.pending == 0 {
		l.clear()
	}
	return w.p
}

// clear drops the recording once no virtual wake is pending, and the
// pins once no closed form is open either. Events still queued keep
// sequence numbers below the next recording's base, which read as
// scheduled before it began, as they were.
func (l *lineage) clear() {
	if l.open == 0 {
		l.pins = l.pins[:0]
	}
	l.base += int32(len(l.nodes))
	l.nodes = l.nodes[:0]
	l.nodeOf = l.nodeOf[:0]
	l.seqBase = ^uint64(0)
	for i, v := range l.virtual {
		v.Release()
		l.virtual[i] = nil
	}
	l.virtual = l.virtual[:0]
	l.cur = Ref{}
}

// reset empties the lineage for a fresh run (Simulation.Reset).
func (l *lineage) reset() {
	l.open, l.pending = 0, 0
	l.clear()
	clear(l.wakes)
	l.wakes = l.wakes[:0]
	l.base = 0
}

// step is one event of a line under comparison.
type step struct {
	t      Time
	real   bool   // a real event that has run, ordered by key
	key    uint64 // its dispatch number
	parent Ref
	order  uint64
}

func (l *lineage) step(r Ref) step {
	switch {
	case r.Src == refNode && r.I >= l.base:
		n := &l.nodes[r.I-l.base]
		return step{t: n.t, real: true, key: n.key, parent: n.parent, order: n.order}
	case r.Src == refPin:
		n := &l.pins[r.I]
		return step{t: n.t, real: true, key: n.key, parent: n.parent}
	case r.Src >= refVirtual:
		t, parent, order := l.virtual[r.Src-refVirtual].Event(r.I)
		return step{t: t, parent: parent, order: order}
	}
	panic("sim: lineage step from an unrecorded event")
}

// walk orders two events of one instant by their lines: true if x runs
// first.
func (l *lineage) walk(x, y step) bool {
	for {
		if x.real && y.real {
			return x.key < y.key
		}
		// A line that leaves the recording ran before everything in it.
		if !l.live(x.parent) {
			return true
		}
		if !l.live(y.parent) {
			return false
		}
		px, py := l.step(x.parent), l.step(y.parent)
		if x.parent == y.parent || px.real && py.real && px.key == py.key {
			// One event scheduled both (a pinned entry is the event
			// it pins): its children run in the order it scheduled them.
			return x.order < y.order
		}
		if px.t != py.t {
			return px.t < py.t
		}
		x, y = px, py
	}
}

// wakeBefore orders two virtual wakes of one instant. Wakes of two
// lineages compare their lines' instants as one run (the lines cannot
// meet inside two lineages), then the events the lines leave from —
// the common case when identical closed forms run side by side, as on
// the nodes of a cluster.
func (l *lineage) wakeBefore(a, b *vwake) bool {
	if a.ref.Src == b.ref.Src {
		return l.virtual[a.ref.Src-refVirtual].Before(a.ref.I, b.ref.I)
	}
	ta, ea := l.virtual[a.ref.Src-refVirtual].Line(a.ref.I)
	tb, eb := l.virtual[b.ref.Src-refVirtual].Line(b.ref.I)
	if len(ta) == len(tb) && ea != eb {
		for k := range ta {
			if ta[k] != tb[k] {
				return ta[k] < tb[k]
			}
		}
		return l.walk(l.step(ea), l.step(eb))
	}
	return l.walk(l.step(a.ref), l.step(b.ref))
}

func (l *lineage) wakeLess(i, j int) bool {
	a, b := &l.wakes[i], &l.wakes[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return l.wakeBefore(a, b)
}

func (l *lineage) pushWake(w vwake) {
	l.wakes = append(l.wakes, w)
	for i := len(l.wakes) - 1; i > 0; {
		parent := (i - 1) / 2
		if !l.wakeLess(i, parent) {
			break
		}
		l.wakes[i], l.wakes[parent] = l.wakes[parent], l.wakes[i]
		i = parent
	}
}

func (l *lineage) popWake() vwake {
	q := l.wakes
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = vwake{}
	l.wakes = q[:n]
	for i := 0; ; {
		lc, rc := 2*i+1, 2*i+2
		m := i
		if lc < n && l.wakeLess(lc, m) {
			m = lc
		}
		if rc < n && l.wakeLess(rc, m) {
			m = rc
		}
		if m == i {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	return top
}

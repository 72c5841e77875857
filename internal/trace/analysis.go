package trace

import "sort"

// Analysis passes over a recorded trace. All passes are read-only and
// deterministic: they depend only on the recorded events.

// Segment is one hop of a critical path: an interval on one lane,
// either work (the rank was executing) or wait (the path crossed a
// message edge: the interval spans the sender's post to the receiver's
// consumption).
type Segment struct {
	Lane  int
	Start float64
	End   float64
	Wait  bool
	Label string
}

// Dur returns the segment duration.
func (s Segment) Dur() float64 { return s.End - s.Start }

// CriticalPath is the rank chain that bounds one collective
// invocation's latency: a contiguous tiling of [Start, End] by work and
// wait segments, obtained by walking back from the last rank to finish
// and jumping to the sender whenever the current rank was blocked on a
// message.
type CriticalPath struct {
	Invocation int
	Name       string // algorithm name from the collective span
	Start      float64
	End        float64
	// Latency is the measured collective latency: last rank's exit
	// minus last rank's entry (the harness definition). Total() differs
	// from it only by entry skew of the first rank on the path.
	Latency  float64
	Segments []Segment
}

// Total returns End - Start: the wall-clock the path accounts for.
func (cp *CriticalPath) Total() float64 { return cp.End - cp.Start }

// WorkByLane sums the work (non-wait) time each lane contributes.
func (cp *CriticalPath) WorkByLane() map[int]float64 {
	out := map[int]float64{}
	for _, s := range cp.Segments {
		if !s.Wait {
			out[s.Lane] += s.Dur()
		}
	}
	return out
}

// WaitTime sums the wait segments (message latency and blocked time on
// the path).
func (cp *CriticalPath) WaitTime() float64 {
	var w float64
	for _, s := range cp.Segments {
		if s.Wait {
			w += s.Dur()
		}
	}
	return w
}

// collSpan is one top-level collective span on a lane.
type collSpan struct {
	lane       int
	start, end float64
	name       string
}

// topLevelColl extracts, per lane, the top-level (non-nested)
// collective spans in time order. Tuned dispatchers open no span of
// their own, but composed algorithms (e.g. scatter-allgather) produce
// nested CatColl spans; only the outermost one delimits an invocation.
func topLevelColl(rec *Recorder) map[int][]collSpan {
	out := map[int][]collSpan{}
	topEnd := map[int]float64{}
	for i := range rec.Events() {
		e := &rec.Events()[i]
		if e.Kind != KindSpan || e.Cat != CatColl || e.End < e.Start {
			continue
		}
		// Events appear in Begin order, so an outer span precedes the
		// spans it contains: anything starting before the current
		// top-level span's end is nested.
		if end, ok := topEnd[e.Lane]; ok && e.Start < end {
			continue
		}
		topEnd[e.Lane] = e.End
		out[e.Lane] = append(out[e.Lane], collSpan{lane: e.Lane, start: e.Start, end: e.End, name: e.Name})
	}
	return out
}

// CriticalPaths extracts one critical path per collective invocation.
// Invocation i is the i-th top-level collective span on every lane
// (lanes must agree on the invocation count; extra spans on some lanes
// are ignored).
func CriticalPaths(rec *Recorder) []CriticalPath {
	if rec == nil {
		return nil
	}
	colls := topLevelColl(rec)
	if len(colls) == 0 {
		return nil
	}
	invocations := -1
	for _, spans := range colls {
		if invocations < 0 || len(spans) < invocations {
			invocations = len(spans)
		}
	}
	// Per-lane waited edges sorted by consumption time.
	edges := map[int][]*Event{}
	evs := rec.Events()
	for i := range evs {
		if e := &evs[i]; e.Kind == KindEdge && e.Waited {
			edges[e.Lane] = append(edges[e.Lane], e)
		}
	}
	for _, l := range edges {
		sort.SliceStable(l, func(i, j int) bool { return l[i].End < l[j].End })
	}
	var out []CriticalPath
	for inv := 0; inv < invocations; inv++ {
		out = append(out, extractPath(colls, edges, inv))
	}
	return out
}

func extractPath(colls map[int][]collSpan, edges map[int][]*Event, inv int) CriticalPath {
	// The invocation window per lane, plus the measured latency:
	// last exit minus last entry.
	win := map[int]collSpan{}
	var lastEnd, lastStart float64
	endLane := -1
	for lane, spans := range colls {
		s := spans[inv]
		win[lane] = s
		if s.start > lastStart {
			lastStart = s.start
		}
		if endLane < 0 || s.end > lastEnd || (s.end == lastEnd && lane < endLane) {
			lastEnd = s.end
			endLane = lane
		}
	}
	cp := CriticalPath{Invocation: inv, Name: win[endLane].name, End: lastEnd, Latency: lastEnd - lastStart}

	var segs []Segment
	cur, t := endLane, lastEnd
	for steps := 0; ; steps++ {
		w, inWindow := win[cur]
		if !inWindow || steps > 1<<20 {
			cp.Start = t
			break
		}
		e := latestGatingEdge(edges[cur], t, w.start)
		if e == nil {
			if w.start < t {
				segs = append(segs, Segment{Lane: cur, Start: w.start, End: t, Label: "work"})
				cp.Start = w.start
			} else {
				cp.Start = t
			}
			break
		}
		if e.End < t {
			segs = append(segs, Segment{Lane: cur, Start: e.End, End: t, Label: "work"})
		}
		segs = append(segs, Segment{
			Lane: cur, Start: e.SendTs, End: e.End, Wait: true,
			Label: "wait " + e.Name + " <- " + itoa(e.From),
		})
		if e.SendTs >= t {
			// Degenerate (should not happen: SendTs < ReadyTs <= End <= t);
			// stop rather than loop.
			cp.Start = e.SendTs
			break
		}
		cur, t = e.From, e.SendTs
	}
	// Walked backwards; present in time order.
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	cp.Segments = segs
	return cp
}

// latestGatingEdge returns the latest edge consumed on the lane at or
// before t and inside the invocation window, or nil. An edge must end
// strictly after the window start: the separating barrier's final
// hand-off lands exactly at the collective entry and must not pull the
// walk into the previous phase.
func latestGatingEdge(edges []*Event, t, winStart float64) *Event {
	i := sort.Search(len(edges), func(i int) bool { return edges[i].End > t })
	for i--; i >= 0; i-- {
		if e := edges[i]; e.End > winStart && e.SendTs < t {
			return e
		}
	}
	return nil
}

// LockStats summarizes mm-lock contention on one target process's lane:
// how long the lock-holding page loop ran at each concurrency level,
// the peak concurrency, and (in emergent-lock mode) the peak FIFO queue
// depth.
type LockStats struct {
	Lane       int
	TimeAtConc map[int]float64 // concurrency level -> virtual time spent there
	MaxConc    int
	MaxQueue   int
	HeldTime   float64 // total time with >= 1 concurrent op in the locked loop
}

// CounterInFlight is the counter name kernel emits when a CMA op enters
// or leaves a target mm's locked page loop.
const CounterInFlight = "mm_inflight"

// CounterQueue is the counter name kernel emits for the emergent-lock
// FIFO queue depth.
const CounterQueue = "mm_queue"

// LockTimelines integrates the mm-lock concurrency counters into a
// per-target-process contention histogram, sorted by lane.
func LockTimelines(rec *Recorder) []LockStats {
	if rec == nil {
		return nil
	}
	byLane := map[int]*LockStats{}
	lastTs := map[int]float64{}
	lastVal := map[int]int{}
	evs := rec.Events()
	for i := range evs {
		e := &evs[i]
		if e.Kind != KindCounter || e.Cat != CatLock {
			continue
		}
		st := byLane[e.Lane]
		if st == nil {
			st = &LockStats{Lane: e.Lane, TimeAtConc: map[int]float64{}}
			byLane[e.Lane] = st
		}
		switch e.Name {
		case CounterInFlight:
			v := int(e.Value)
			if prev, ok := lastVal[e.Lane]; ok {
				dt := e.Start - lastTs[e.Lane]
				if prev > 0 && dt > 0 {
					st.TimeAtConc[prev] += dt
					st.HeldTime += dt
				}
			}
			lastTs[e.Lane], lastVal[e.Lane] = e.Start, v
			if v > st.MaxConc {
				st.MaxConc = v
			}
		case CounterQueue:
			if q := int(e.Value); q > st.MaxQueue {
				st.MaxQueue = q
			}
		}
	}
	out := make([]LockStats, 0, len(byLane))
	for _, st := range byLane {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lane < out[j].Lane })
	return out
}

// RankUtil decomposes one rank's traced window into what the rank was
// doing: CMA kernel phases, shared-memory copying, blocked on messages,
// and the remainder (matching, control costs, local compute).
type RankUtil struct {
	Lane    int
	Window  float64 // total time inside top-level collective spans
	Syscall float64 // CMA syscall entry + permission check
	Lock    float64 // CMA per-page lock phase (incl. γ inflation / queueing)
	Pin     float64 // CMA per-page pin phase
	Copy    float64 // CMA data copy
	ShmCopy float64 // shared-memory cell staging/draining copies
	Wait    float64 // blocked on a message edge (readyTs - waitStart)
	Other   float64 // Window minus all of the above (control, compute)
}

// Utilizations computes the per-rank decomposition, sorted by lane.
// Only events inside a lane's top-level collective spans are counted
// (the barriers separating timed invocations are excluded); lanes with
// no top-level collective span use their first-to-last event interval
// as the window and count everything.
func Utilizations(rec *Recorder) []RankUtil {
	if rec == nil {
		return nil
	}
	colls := topLevelColl(rec)
	byLane := map[int]*RankUtil{}
	get := func(lane int) *RankUtil {
		u := byLane[lane]
		if u == nil {
			u = &RankUtil{Lane: lane}
			byLane[lane] = u
		}
		return u
	}
	inWindow := func(lane int, t float64) bool {
		spans, ok := colls[lane]
		if !ok {
			return true // no windows: count everything
		}
		i := sort.Search(len(spans), func(i int) bool { return spans[i].end >= t })
		return i < len(spans) && spans[i].start <= t
	}
	first := map[int]float64{}
	last := map[int]float64{}
	evs := rec.Events()
	for i := range evs {
		e := &evs[i]
		if _, ok := first[e.Lane]; !ok {
			first[e.Lane] = e.Start
		}
		if e.End > last[e.Lane] {
			last[e.Lane] = e.End
		} else if e.Start > last[e.Lane] {
			last[e.Lane] = e.Start
		}
		if (e.Kind == KindSpan || e.Kind == KindEdge) && !inWindow(e.Lane, e.End) {
			continue
		}
		switch {
		case e.Kind == KindSpan && e.Cat == CatCMA && e.End >= e.Start:
			u := get(e.Lane)
			sys, _ := e.Arg("syscall")
			perm, _ := e.Arg("perm")
			lock, _ := e.Arg("lock")
			pin, _ := e.Arg("pin")
			cp, _ := e.Arg("copy")
			u.Syscall += sys + perm
			u.Lock += lock
			u.Pin += pin
			u.Copy += cp
		case e.Kind == KindSpan && e.Cat == CatShm && e.End >= e.Start:
			if cp, ok := e.Arg("copy"); ok {
				get(e.Lane).ShmCopy += cp
			}
		case e.Kind == KindEdge && e.Waited:
			get(e.Lane).Wait += e.ReadyTs - e.Start
		}
	}
	for lane, spans := range colls {
		u := get(lane)
		for _, s := range spans {
			u.Window += s.end - s.start
		}
	}
	out := make([]RankUtil, 0, len(byLane))
	for lane, u := range byLane {
		if u.Window == 0 {
			u.Window = last[lane] - first[lane]
		}
		u.Other = u.Window - u.Syscall - u.Lock - u.Pin - u.Copy - u.ShmCopy - u.Wait
		if u.Other < 0 {
			u.Other = 0
		}
		out = append(out, *u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Lane < out[j].Lane })
	return out
}

// CMASummary aggregates the per-op kernel phase breakdowns recorded on
// CMA spans: the ftrace-style totals of the paper's Fig 4.
type CMASummary struct {
	Ops     int
	Syscall float64
	Perm    float64
	Lock    float64
	Pin     float64
	Copy    float64
	MaxC    int
}

// SummarizeCMA folds every closed CMA span into phase totals.
func SummarizeCMA(rec *Recorder) CMASummary {
	var out CMASummary
	if rec == nil {
		return out
	}
	evs := rec.Events()
	for i := range evs {
		e := &evs[i]
		if e.Kind != KindSpan || e.Cat != CatCMA || e.End < e.Start {
			continue
		}
		if _, aborted := e.Arg("aborted"); aborted {
			continue // address-range violation: not an op
		}
		out.Ops++
		add := func(key string, dst *float64) {
			if v, ok := e.Arg(key); ok {
				*dst += v
			}
		}
		add("syscall", &out.Syscall)
		add("perm", &out.Perm)
		add("lock", &out.Lock)
		add("pin", &out.Pin)
		add("copy", &out.Copy)
		if c, ok := e.Arg("maxc"); ok && int(c) > out.MaxC {
			out.MaxC = int(c)
		}
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

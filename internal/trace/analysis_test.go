package trace

import (
	"math"
	"testing"
)

const eps = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) < eps }

// buildKnomialBcast hand-builds the trace of one 4-rank k-nomial (k=2)
// broadcast: root 0 serves rank 2 then rank 1; rank 2 relays to rank 3.
// The longest dependency chain is 0 -> 2 -> 3.
func buildKnomialBcast(t *testing.T) *Recorder {
	t.Helper()
	clk := &fakeClock{}
	rec := newRecorder(clk)
	for r := 0; r < 4; r++ {
		rec.RegisterLane(r, "rank", 1000+r)
	}
	at := func(ts float64) { clk.t = ts }

	at(0)
	s0 := rec.Begin(0, CatColl, "bcast:knomial-write-2")
	at(0.05)
	s1 := rec.Begin(1, CatColl, "bcast:knomial-write-2")
	at(0.1)
	s2 := rec.Begin(2, CatColl, "bcast:knomial-write-2")
	at(0.15)
	s3 := rec.Begin(3, CatColl, "bcast:knomial-write-2")

	// A nested collective-phase span on the root: must not count as a
	// separate top-level invocation.
	at(1)
	lv := rec.Begin(0, CatColl, "serve_level")
	at(5)
	rec.End(lv)

	// Hand-offs, recorded receiver-side. All three receivers started
	// waiting right after entering, so every edge gates.
	rec.Edge(0, 2, CatShm, "notify", 10, 10.5, 0.2, 10.5)
	rec.Edge(2, 3, CatShm, "notify", 20, 20.5, 0.3, 20.5)
	rec.Edge(0, 1, CatShm, "notify", 24, 24.5, 0.25, 24.5)

	at(25)
	rec.End(s0)
	rec.End(s1)
	at(30)
	rec.End(s2)
	at(30.5)
	rec.End(s3)
	return rec
}

func TestCriticalPathKnomialBcast(t *testing.T) {
	rec := buildKnomialBcast(t)
	cps := CriticalPaths(rec)
	if len(cps) != 1 {
		t.Fatalf("got %d invocations, want 1 (nested span miscounted?)", len(cps))
	}
	cp := cps[0]
	if cp.Name != "bcast:knomial-write-2" || cp.Invocation != 0 {
		t.Fatalf("path header %+v", cp)
	}
	// The chain 0 -> 2 -> 3: root works [0,10], rank 2 waits then works
	// until its send at 20, rank 3 waits then works to the last finish.
	want := []Segment{
		{Lane: 0, Start: 0, End: 10},
		{Lane: 2, Start: 10, End: 10.5, Wait: true},
		{Lane: 2, Start: 10.5, End: 20},
		{Lane: 3, Start: 20, End: 20.5, Wait: true},
		{Lane: 3, Start: 20.5, End: 30.5},
	}
	if len(cp.Segments) != len(want) {
		t.Fatalf("got %d segments %+v, want %d", len(cp.Segments), cp.Segments, len(want))
	}
	for i, w := range want {
		g := cp.Segments[i]
		if g.Lane != w.Lane || !near(g.Start, w.Start) || !near(g.End, w.End) || g.Wait != w.Wait {
			t.Errorf("segment %d = %+v, want %+v", i, g, w)
		}
	}
	if !near(cp.Total(), 30.5) {
		t.Errorf("Total = %v, want 30.5", cp.Total())
	}
	// Measured latency: last exit (30.5) minus last entry (0.15).
	if !near(cp.Latency, 30.35) {
		t.Errorf("Latency = %v, want 30.35", cp.Latency)
	}
	if !near(cp.WaitTime(), 1.0) {
		t.Errorf("WaitTime = %v, want 1.0", cp.WaitTime())
	}
	work := cp.WorkByLane()
	if !near(work[0], 10) || !near(work[2], 9.5) || !near(work[3], 10) {
		t.Errorf("WorkByLane = %v", work)
	}
	// The path is continuous: each segment starts where the previous
	// ended, covering [Start, End] with no gaps.
	prev := cp.Start
	for i, s := range cp.Segments {
		if !near(s.Start, prev) {
			t.Errorf("gap before segment %d: %v -> %v", i, prev, s.Start)
		}
		prev = s.End
	}
	if !near(prev, cp.End) {
		t.Errorf("path ends at %v, want %v", prev, cp.End)
	}
}

func TestCriticalPathMultipleInvocations(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecorder(clk)
	// Two back-to-back invocations on two lanes; the second gated by an
	// edge 0 -> 1.
	for inv := 0; inv < 2; inv++ {
		base := float64(inv) * 100
		clk.t = base
		a := rec.Begin(0, CatColl, "scatter:throttle-2")
		b := rec.Begin(1, CatColl, "scatter:throttle-2")
		rec.Edge(0, 1, CatShm, "notify", base+10, base+10.5, base, base+10.5)
		clk.t = base + 11
		rec.End(a)
		clk.t = base + 20
		rec.End(b)
	}
	cps := CriticalPaths(rec)
	if len(cps) != 2 {
		t.Fatalf("got %d invocations, want 2", len(cps))
	}
	for i, cp := range cps {
		base := float64(i) * 100
		if cp.Invocation != i || !near(cp.End, base+20) {
			t.Errorf("invocation %d: %+v", i, cp)
		}
		// The walk must not cross into the previous invocation's edges.
		if !near(cp.Start, base) {
			t.Errorf("invocation %d starts at %v, want %v", i, cp.Start, base)
		}
	}
}

func TestLockTimelines(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecorder(clk)
	emit := func(ts float64, name string, v int) {
		clk.t = ts
		rec.Counter(0, CatLock, name, float64(v))
	}
	emit(0, CounterInFlight, 1)
	emit(1, CounterInFlight, 2)
	emit(2, CounterQueue, 2)
	emit(3, CounterInFlight, 1)
	emit(6, CounterInFlight, 0)
	stats := LockTimelines(rec)
	if len(stats) != 1 {
		t.Fatalf("got %d lanes", len(stats))
	}
	st := stats[0]
	if st.Lane != 0 || st.MaxConc != 2 || st.MaxQueue != 2 {
		t.Fatalf("stats %+v", st)
	}
	if !near(st.TimeAtConc[1], 4) || !near(st.TimeAtConc[2], 2) {
		t.Errorf("TimeAtConc = %v, want {1:4, 2:2}", st.TimeAtConc)
	}
	if !near(st.HeldTime, 6) {
		t.Errorf("HeldTime = %v, want 6", st.HeldTime)
	}
}

func TestUtilizations(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecorder(clk)
	at := func(ts float64) { clk.t = ts }

	at(0)
	coll := rec.Begin(0, CatColl, "gather:throttle-2")
	at(1)
	cma := rec.Begin(0, CatCMA, "vm_read")
	at(4)
	rec.End(cma, F("syscall", 0.5), F("perm", 0.25), F("lock", 1), F("pin", 0.5), F("copy", 1.5))
	at(5)
	shm := rec.Begin(0, CatShm, "shm_send")
	at(6)
	rec.End(shm, F("copy", 0.75))
	rec.Edge(1, 0, CatShm, "notify", 6.5, 8, 7, 8.2)
	at(10)
	rec.End(coll)
	// Outside the collective window (a barrier-phase op): not counted.
	at(11)
	out := rec.Begin(0, CatCMA, "vm_read")
	at(12)
	rec.End(out, F("copy", 5))
	rec.Edge(1, 0, CatShm, "barrier", 11, 12, 11, 12)

	us := Utilizations(rec)
	if len(us) != 1 {
		t.Fatalf("got %d lanes", len(us))
	}
	u := us[0]
	if !near(u.Window, 10) {
		t.Errorf("Window = %v, want 10", u.Window)
	}
	if !near(u.Syscall, 0.75) || !near(u.Lock, 1) || !near(u.Pin, 0.5) || !near(u.Copy, 1.5) {
		t.Errorf("CMA phases = %+v", u)
	}
	if !near(u.ShmCopy, 0.75) {
		t.Errorf("ShmCopy = %v, want 0.75", u.ShmCopy)
	}
	if !near(u.Wait, 1) {
		t.Errorf("Wait = %v, want 1 (readyTs - waitStart)", u.Wait)
	}
	if !near(u.Other, 10-0.75-1-0.5-1.5-0.75-1) {
		t.Errorf("Other = %v", u.Other)
	}
}

func TestSummarizeCMA(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecorder(clk)
	for i := 0; i < 3; i++ {
		clk.t = float64(i)
		s := rec.Begin(0, CatCMA, "vm_write")
		clk.t = float64(i) + 0.5
		rec.End(s, F("syscall", 0.1), F("perm", 0.05), F("lock", 0.2), F("pin", 0.1), F("copy", 0.3), F("maxc", float64(i)))
	}
	s := SummarizeCMA(rec)
	if s.Ops != 3 || s.MaxC != 2 {
		t.Fatalf("summary %+v", s)
	}
	if !near(s.Syscall, 0.3) || !near(s.Perm, 0.15) || !near(s.Lock, 0.6) || !near(s.Pin, 0.3) || !near(s.Copy, 0.9) {
		t.Errorf("phase sums %+v", s)
	}
}

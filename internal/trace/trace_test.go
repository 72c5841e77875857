package trace

import "testing"

// fakeClock is a settable virtual clock for driving the recorder in
// tests without a simulator.
type fakeClock struct{ t float64 }

func (c *fakeClock) Now() float64 { return c.t }

// newRecorder returns a recorder bound to clk.
func newRecorder(clk Clock) *Recorder {
	rec := NewUnbound()
	rec.Bind(clk)
	return rec
}

func TestNilRecorderIsSafe(t *testing.T) {
	var rec *Recorder
	if rec.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	rec.RegisterLane(0, "rank 0", 1000)
	id := rec.Begin(0, CatColl, "bcast")
	if id != NoSpan {
		t.Fatalf("nil Begin = %d, want NoSpan", id)
	}
	rec.End(id)
	rec.Instant(0, CatLock, "acquire")
	rec.Counter(0, CatLock, "mm_inflight", 1)
	rec.Edge(0, 1, CatShm, "eager", 0, 1, 0.5, 1.5)
	if rec.Len() != 0 || rec.Events() != nil || rec.Lanes() != nil {
		t.Fatal("nil recorder retained state")
	}
	if got := rec.LaneForPid(1003); got != NoLane {
		t.Fatalf("nil LaneForPid = %d, want NoLane", got)
	}
}

func TestBeginEndSpan(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecorder(clk)
	if !rec.Enabled() {
		t.Fatal("recorder not enabled")
	}
	clk.t = 2.5
	id := rec.Begin(3, CatCMA, "vm_read", F("bytes", 4096))
	clk.t = 7.25
	rec.End(id, F("copy", 4))
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Kind != KindSpan || e.Cat != CatCMA || e.Name != "vm_read" || e.Lane != 3 {
		t.Fatalf("bad span event %+v", e)
	}
	if e.Start != 2.5 || e.End != 7.25 || e.End-e.Start != 4.75 {
		t.Fatalf("span interval [%v,%v]", e.Start, e.End)
	}
	if v, ok := e.Arg("bytes"); !ok || v != 4096 {
		t.Fatalf("bytes arg = %v,%v", v, ok)
	}
	if v, ok := e.Arg("copy"); !ok || v != 4 {
		t.Fatalf("end args not merged: copy = %v,%v", v, ok)
	}
}

func TestEndOfOpenSpanOnly(t *testing.T) {
	rec := newRecorder(&fakeClock{})
	id := rec.Begin(0, CatColl, "x")
	rec.End(id)
	defer func() {
		if recover() == nil {
			t.Fatal("double End did not panic")
		}
	}()
	rec.End(id)
}

func TestEdgeSemantics(t *testing.T) {
	clk := &fakeClock{t: 10}
	rec := newRecorder(clk)
	// Receiver waited: message became ready after the wait started.
	rec.Edge(1, 2, CatShm, "notify", 9.0, 10.5, 10.0, 10.6)
	// Receiver did not wait: ready before the wait started.
	rec.Edge(2, 3, CatShm, "notify", 9.0, 9.5, 10.0, 10.1)
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events", len(evs))
	}
	w, nw := evs[0], evs[1]
	if !w.Waited || w.From != 1 || w.Lane != 2 || w.SendTs != 9.0 || w.ReadyTs != 10.5 {
		t.Fatalf("waited edge %+v", w)
	}
	if nw.Waited {
		t.Fatalf("edge ready before waitStart marked waited: %+v", nw)
	}
}

func TestLaneRegistration(t *testing.T) {
	rec := newRecorder(&fakeClock{})
	rec.RegisterLane(0, "rank 0", 1000)
	rec.RegisterLane(5, "rank 5", 1005)
	if got := rec.LaneForPid(1005); got != 5 {
		t.Fatalf("LaneForPid(1005) = %d, want 5", got)
	}
	// Unregistered pids map to a negative pseudo-lane so kernel-side
	// events from un-traced processes stay distinguishable.
	if got := rec.LaneForPid(1234); got != -1234 {
		t.Fatalf("LaneForPid(1234) = %d, want -1234", got)
	}
	lanes := rec.Lanes()
	if len(lanes) != 2 || lanes[0].ID != 0 || lanes[1].Pid != 1005 || lanes[1].Name != "rank 5" {
		t.Fatalf("lanes %+v", lanes)
	}
}

func TestBindRules(t *testing.T) {
	rec := NewUnbound()
	clk := &fakeClock{}
	rec.Bind(clk)
	if !rec.Enabled() {
		t.Fatal("bound recorder not enabled")
	}
	rec.Instant(0, CatColl, "x")
	// Rebinding to the same clock is a no-op; to a different clock with
	// recorded events it must panic (the timeline would be meaningless).
	rec.Bind(clk)
	defer func() {
		if recover() == nil {
			t.Fatal("rebind with events did not panic")
		}
	}()
	rec.Bind(&fakeClock{})
}

func TestCounterEvent(t *testing.T) {
	clk := &fakeClock{t: 3}
	rec := newRecorder(clk)
	rec.Counter(2, CatLock, "mm_inflight", 4)
	e := rec.Events()[0]
	if e.Kind != KindCounter || e.Value != 4 || e.Start != 3 || e.Lane != 2 {
		t.Fatalf("counter event %+v", e)
	}
}

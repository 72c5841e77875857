package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

// decoded mirrors the trace-event fields the tests inspect.
type decoded struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	ID   int     `json:"id"`
	Args map[string]interface{}
}

func exportKnomial(t *testing.T) []decoded {
	t.Helper()
	rec := buildKnomialBcast(t)
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var top struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if top.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", top.DisplayTimeUnit)
	}
	var evs []decoded
	for i, raw := range top.TraceEvents {
		var d decoded
		if err := json.Unmarshal(raw, &d); err != nil {
			t.Fatalf("event %d is not valid JSON: %v", i, err)
		}
		evs = append(evs, d)
	}
	return evs
}

func TestChromeExport(t *testing.T) {
	evs := exportKnomial(t)

	// Metadata first: process_name/thread_name for each of the 4
	// registered lanes, pids matching the lane ids.
	pids := map[int]bool{}
	meta := 0
	for _, e := range evs {
		if e.Ph == "M" {
			meta++
			pids[e.Pid] = true
			continue
		}
		break // metadata is a prefix
	}
	if meta != 8 {
		t.Fatalf("got %d metadata events, want 8 (2 per lane)", meta)
	}
	for r := 0; r < 4; r++ {
		if !pids[r] {
			t.Errorf("no metadata for pid %d", r)
		}
	}

	// Timestamps monotonic after the metadata prefix.
	last := -1.0
	for i, e := range evs[meta:] {
		if e.Ts < last {
			t.Fatalf("ts not monotonic at event %d: %v after %v", i, e.Ts, last)
		}
		last = e.Ts
	}

	// Events land on the pid of their lane, and every flow start has a
	// matching finish with the same id.
	var spans, flowS, flowF int
	flows := map[int][2]int{}
	for _, e := range evs[meta:] {
		switch e.Ph {
		case "X":
			spans++
			if e.Dur < 0 {
				t.Errorf("negative dur on %q", e.Name)
			}
		case "s":
			flowS++
			f := flows[e.ID]
			f[0]++
			flows[e.ID] = f
		case "f":
			flowF++
			f := flows[e.ID]
			f[1]++
			flows[e.ID] = f
		}
	}
	// 5 closed spans (4 collectives + nested serve_level) + 3 wait
	// spans from the waited edges.
	if spans != 8 {
		t.Errorf("got %d X events, want 8", spans)
	}
	if flowS != 3 || flowF != 3 {
		t.Errorf("flow events s=%d f=%d, want 3 each", flowS, flowF)
	}
	for id, f := range flows {
		if f[0] != 1 || f[1] != 1 {
			t.Errorf("flow id %d has %d starts, %d finishes", id, f[0], f[1])
		}
	}
}

func TestChromeSkipsOpenSpans(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecorder(clk)
	rec.RegisterLane(0, "rank 0", 1000)
	clk.t = 1
	rec.Begin(0, CatColl, "left-open")
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if bytes.Contains(buf.Bytes(), []byte("left-open")) {
		t.Error("open span was exported")
	}
}

func TestChromePseudoLanePid(t *testing.T) {
	clk := &fakeClock{}
	rec := newRecorder(clk)
	// An event on an unregistered pseudo-lane (negative) must export
	// with a non-negative pid.
	rec.Instant(-1007, CatLock, "mm_lock_acquire")
	var buf bytes.Buffer
	if err := WriteChrome(&buf, rec); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var top struct {
		TraceEvents []decoded `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &top); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(top.TraceEvents) != 1 || top.TraceEvents[0].Pid != 1007 {
		t.Fatalf("events %+v, want one event with pid 1007", top.TraceEvents)
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call in the traced run: an op, a layer call inside
// it, or a per-layer probe after it. Spans of one op share Op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// acc accumulates one per-layer quantity over the samples that touched
// the layer.
type acc struct {
	sum, max float64
	n        int
}

func (a *acc) mean() float64 { return a.sum / float64(a.n) }

// tracer records spans and layer counters of the traced run. It keeps
// everything in memory; writeSpans dumps the spans at exit. A nil
// *tracer is the untraced run: every method is then a no-op apart from
// running the timed function.
type tracer struct {
	t0    time.Time
	spans []span
	cur   int
	op    int
	acc   map[string]*acc
	// opDur is the duration of the op span most recently closed; probes
	// run after it and read it to split op time into layers.
	opDur time.Duration
	// mismatches lists probe-side correctness findings (a traced
	// measurement that disagrees with the untraced op).
	mismatches []string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, acc: map[string]*acc{}}
}

// timed runs fn inside a span called name and returns its duration.
// The span is closed even if fn panics, so a recovered panic leaves the
// span tree well formed.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start)
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, ID: id, Parent: t.cur, Start: int64(start.Sub(t.t0))})
	t.cur = id
	defer func() {
		end := time.Now()
		t.spans[id].End = int64(end.Sub(t.t0))
		t.cur = t.spans[id].Parent
	}()
	fn()
	return time.Since(start)
}

// add records one sample of a layer quantity.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	a := t.acc[name]
	if a == nil {
		a = &acc{max: v}
		t.acc[name] = a
	}
	a.sum += v
	a.n++
	if v > a.max {
		a.max = v
	}
}

func (t *tracer) mismatch(format string, args ...any) {
	if t != nil {
		t.mismatches = append(t.mismatches, fmt.Sprintf(format, args...))
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// selfTime is one row of the per-span-name self-time table.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the time its direct children cover; spans come from
// one goroutine, so children never overlap.
func selfTimes(spans []span) []selfTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for i, s := range spans {
		r := by[s.Name]
		if r == nil {
			r = &selfTime{name: s.Name}
			by[s.Name] = r
		}
		r.count++
		r.total += time.Duration(s.End - s.Start)
		r.self += time.Duration(s.End - s.Start - child[i])
	}
	out := make([]selfTime, 0, len(by))
	for _, r := range by {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

func writeSelfTimes(w io.Writer, spans []span, ops int) {
	fmt.Fprintf(w, "self time by span (%d traced ops):\n", ops)
	fmt.Fprintf(w, "  %-24s %7s %12s %12s %14s\n", "span", "count", "total_ms", "self_ms", "self_ms_per_op")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "  %-24s %7d %12.3f %12.3f %14.4f\n", r.name, r.count, ms(r.total), ms(r.self), ms(r.self)/float64(ops))
	}
}

// writeSpans dumps the traced run's spans as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

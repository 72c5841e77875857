// Package bench is the reproduction harness: one experiment per figure
// and table of the paper's evaluation, each regenerating the same
// rows/series the paper plots, as aligned text tables.
//
// Experiments return structured Tables so tests can assert the published
// *shapes* (who wins, by what factor, where crossovers fall), and print
// them for the camc-bench command-line tool and for EXPERIMENTS.md.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"camc/internal/arch"
	"camc/internal/fault"
	"camc/internal/liveness"
	"camc/internal/trace"
)

// Options tunes an experiment run.
type Options struct {
	// Arch restricts multi-architecture experiments to one profile
	// ("knl", "broadwell", "power8"). Empty = the experiment's default
	// set.
	Arch string
	// Quick trims sweeps (fewer sizes, smaller concurrency ladders) for
	// test and benchmark use; shapes remain intact.
	Quick bool
	// Jobs caps the worker goroutines evaluating independent experiment
	// cells (0 = GOMAXPROCS, 1 = sequential). Cells are deterministic
	// simulations assembled by index, so emitted tables are identical
	// for any value; only wall-clock time changes.
	Jobs int
	// TraceSink, when non-nil, runs every measurement of the
	// algorithm-comparison experiments (figs 7-11) with a trace recorder
	// attached and hands each cell's recorder to the sink, labelled by
	// architecture, algorithm and message size. Latencies are unchanged
	// (recording never perturbs virtual time).
	TraceSink func(archName, algo string, size int64, rec *trace.Recorder)

	// Fault, when non-nil and active, adds a "custom" scenario with this
	// configuration to the x8 robustness experiment (the camc-bench
	// -faults flag). A config with a kill probability also adds a custom
	// scenario to the x9 chaos experiment.
	Fault *fault.Config

	// Deadline, when > 0, overrides the liveness failure detector's
	// blocking-wait deadline (simulated microseconds) for the x9 chaos
	// experiment (the camc-bench -deadline flag). 0 keeps the x9 default;
	// anything else must pass liveness.CheckDeadline, or Run returns its
	// error.
	Deadline float64
}

// check rejects options no experiment can run with.
func (o Options) check() error {
	return liveness.CheckDeadline(o.Deadline)
}

func (o Options) archs(defaults ...*arch.Profile) []*arch.Profile {
	if o.Arch == "" {
		return defaults
	}
	p, err := arch.ByName(o.Arch)
	if err != nil {
		panic(err)
	}
	for _, d := range defaults {
		if d.Name == p.Name {
			return []*arch.Profile{p}
		}
	}
	// The experiment does not cover this architecture in the paper;
	// honour the request anyway (useful for exploration).
	return []*arch.Profile{p}
}

// Series is one named line of a figure (or column of a table).
type Series struct {
	Name   string
	Values []float64
}

// Table is one panel of an experiment: x labels down the side, one
// column per series.
type Table struct {
	Title   string
	XHeader string
	XLabels []string
	Series  []Series
	// Notes are printed under the table (units, caveats).
	Notes []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n\n", t.Title)
	width := len(t.XHeader)
	for _, l := range t.XLabels {
		if len(l) > width {
			width = len(l)
		}
	}
	cols := make([]int, len(t.Series))
	for i, s := range t.Series {
		cols[i] = len(s.Name)
		for _, v := range s.Values {
			if n := len(formatVal(v)); n > cols[i] {
				cols[i] = n
			}
		}
	}
	fmt.Fprintf(w, "%-*s", width, t.XHeader)
	for i, s := range t.Series {
		fmt.Fprintf(w, "  %*s", cols[i], s.Name)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%s\n", strings.Repeat("-", width+sum(cols)+2*len(cols)))
	for xi, xl := range t.XLabels {
		fmt.Fprintf(w, "%-*s", width, xl)
		for i, s := range t.Series {
			v := ""
			if xi < len(s.Values) {
				v = formatVal(s.Values[xi])
			}
			fmt.Fprintf(w, "  %*s", cols[i], v)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func formatVal(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// Experiment reproduces one figure or table of the paper.
type Experiment struct {
	ID    string // "fig7", "tab6", ...
	Title string
	// Traceable marks experiments whose measurements feed
	// Options.TraceSink (the algorithm-comparison figures); selecting
	// -trace with none of these in the run set is a usage error.
	Traceable bool
	Tables    func(o Options) []Table
}

// Run generates and prints the experiment's tables.
func (e *Experiment) Run(w io.Writer, o Options) error {
	if err := o.check(); err != nil {
		return err
	}
	fmt.Fprintf(w, "=== %s: %s ===\n\n", e.ID, e.Title)
	for _, t := range e.Tables(o) {
		t.Fprint(w)
	}
	return nil
}

var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Registry returns all experiments sorted by ID (figures first, then
// tables).
func Registry() []*Experiment {
	var out []*Experiment
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return idKey(out[i].ID) < idKey(out[j].ID) })
	return out
}

// idKey makes fig2 < fig10 and figs sort before tables.
func idKey(id string) string {
	prefix := strings.TrimRight(id, "0123456789")
	num := strings.TrimPrefix(id, prefix)
	return fmt.Sprintf("%s%04s", prefix, num)
}

// ByID returns one experiment.
func ByID(id string) (*Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// sweepSizes is the standard message-size ladder (bytes per rank).
func sweepSizes(quick bool, max int64) []int64 {
	if quick {
		return []int64{4 << 10, 64 << 10, max}
	}
	var out []int64
	for s := int64(1 << 10); s <= max; s <<= 1 {
		out = append(out, s)
	}
	return out
}

// sizeLabels renders sizes as 1K / 4M style labels.
func sizeLabels(sizes []int64) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = sizeLabel(s)
	}
	return out
}

func sizeLabel(s int64) string {
	switch {
	case s >= 1<<20 && s%(1<<20) == 0:
		return fmt.Sprintf("%dM", s>>20)
	case s >= 1<<10 && s%(1<<10) == 0:
		return fmt.Sprintf("%dK", s>>10)
	default:
		return fmt.Sprintf("%d", s)
	}
}

// largestSize is the Table VII "largest message evaluated" per
// architecture: 4 MiB on KNL and Broadwell, 2 MiB on Power8.
func largestSize(a *arch.Profile) int64 {
	if a.Name == "power8" {
		return 2 << 20
	}
	return 4 << 20
}

// readerLadder returns 1,2,4,... up to max.
func readerLadder(max int, quick bool) []int {
	var out []int
	for c := 1; c <= max; c <<= 1 {
		out = append(out, c)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	if quick && len(out) > 4 {
		out = []int{1, out[len(out)/2], out[len(out)-1]}
	}
	return out
}

package store

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Filter is the predicate pushed down into Store.Scan. Zero fields
// match everything; string fields match exactly.
type Filter struct {
	Type       Type // 0 = any
	RunID      string
	Source     string
	Experiment string
	Arch       string
	Collective string
	Series     string
	Verdict    string
	// MinSize/MaxSize bound Record.Size when > 0.
	MinSize int64
	MaxSize int64
	// SinceSeq keeps records with Seq >= SinceSeq (segments wholly
	// before it are skipped without being read).
	SinceSeq uint64
}

// Match reports whether the record passes the filter.
func (f Filter) Match(r Record) bool {
	switch {
	case f.Type != 0 && r.Type != f.Type,
		f.RunID != "" && r.RunID != f.RunID,
		f.Source != "" && r.Source != f.Source,
		f.Experiment != "" && r.Experiment != f.Experiment,
		f.Arch != "" && r.Arch != f.Arch,
		f.Collective != "" && r.Collective != f.Collective,
		f.Series != "" && r.Series != f.Series,
		f.Verdict != "" && r.Verdict != f.Verdict,
		f.MinSize > 0 && r.Size < f.MinSize,
		f.MaxSize > 0 && r.Size > f.MaxSize,
		f.SinceSeq > 0 && r.Seq < f.SinceSeq:
		return false
	}
	return true
}

// Key identifies one experiment cell across runs: two records with the
// same Key measure the same thing, so their values are comparable.
type Key struct {
	Experiment string
	Table      string
	Arch       string
	Collective string
	Series     string
	X          string
}

// KeyOf extracts the cell identity of a record.
func KeyOf(r Record) Key {
	return Key{
		Experiment: r.Experiment,
		Table:      r.Table,
		Arch:       r.Arch,
		Collective: r.Collective,
		Series:     r.Series,
		X:          r.X,
	}
}

// String renders the key compactly for reports:
// "tab6 · knl/gather · seq-read @ 64K".
func (k Key) String() string {
	var b strings.Builder
	b.WriteString(k.Experiment)
	if k.Arch != "" || k.Collective != "" {
		fmt.Fprintf(&b, " · %s", strings.Trim(k.Arch+"/"+k.Collective, "/"))
	}
	if k.Series != "" {
		fmt.Fprintf(&b, " · %s", k.Series)
	}
	if k.X != "" {
		fmt.Fprintf(&b, " @ %s", k.X)
	}
	return b.String()
}

func (k Key) less(o Key) bool {
	if k.Experiment != o.Experiment {
		return k.Experiment < o.Experiment
	}
	if k.Table != o.Table {
		return k.Table < o.Table
	}
	if k.Arch != o.Arch {
		return k.Arch < o.Arch
	}
	if k.Collective != o.Collective {
		return k.Collective < o.Collective
	}
	if k.Series != o.Series {
		return k.Series < o.Series
	}
	return k.X < o.X
}

// Delta is one cell compared between a baseline and a head run.
type Delta struct {
	Key  Key
	Base float64
	Head float64
	Unit string
}

// Ratio is Head/Base (Inf when the baseline is 0 and the head is not).
func (d Delta) Ratio() float64 {
	if d.Base == 0 {
		if d.Head == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return d.Head / d.Base
}

// Deltas matches baseline and head cell records by key (last value
// wins within each set) and returns the joined deltas ordered by key,
// plus the keys present on only one side.
func Deltas(base, head []Record) (ds []Delta, onlyBase, onlyHead []Key) {
	bm := lastByKey(base)
	hm := lastByKey(head)
	for k, hv := range hm {
		if bv, ok := bm[k]; ok {
			ds = append(ds, Delta{Key: k, Base: bv.Value, Head: hv.Value, Unit: hv.Unit})
		} else {
			onlyHead = append(onlyHead, k)
		}
	}
	for k := range bm {
		if _, ok := hm[k]; !ok {
			onlyBase = append(onlyBase, k)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].Key.less(ds[j].Key) })
	sort.Slice(onlyBase, func(i, j int) bool { return onlyBase[i].less(onlyBase[j]) })
	sort.Slice(onlyHead, func(i, j int) bool { return onlyHead[i].less(onlyHead[j]) })
	return ds, onlyBase, onlyHead
}

func lastByKey(recs []Record) map[Key]Record {
	m := make(map[Key]Record, len(recs))
	for _, r := range recs {
		m[KeyOf(r)] = r
	}
	return m
}

// RegressOpts tunes what counts as a regression.
type RegressOpts struct {
	// Threshold is the head/base ratio above which a cell regressed
	// (1.25 = 25% slower). Values <= 1 are rejected by Validate.
	Threshold float64
	// MinValue ignores cells where both sides are below this absolute
	// value — sub-noise latencies whose ratios are meaningless.
	MinValue float64
}

// Validate rejects unusable option values.
func (o RegressOpts) Validate() error {
	if o.Threshold <= 1 {
		return fmt.Errorf("store: regression threshold %g must be > 1 (a head/base ratio)", o.Threshold)
	}
	if o.MinValue < 0 {
		return fmt.Errorf("store: negative min-value %g", o.MinValue)
	}
	return nil
}

// Regressed reports whether the delta breaches the options.
func (d Delta) Regressed(o RegressOpts) bool {
	if d.Base < o.MinValue && d.Head < o.MinValue {
		return false
	}
	return d.Ratio() > o.Threshold
}

// Regressions filters deltas down to threshold breaches, worst ratio
// first.
func Regressions(ds []Delta, o RegressOpts) []Delta {
	var out []Delta
	for _, d := range ds {
		if d.Regressed(o) {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ratio() > out[j].Ratio() })
	return out
}

// CellsOfRun selects the cell and verdict records of one run.
func (s *Store) CellsOfRun(runID string) ([]Record, error) {
	recs, err := s.Select(Filter{RunID: runID})
	if err != nil {
		return nil, err
	}
	out := recs[:0]
	for _, r := range recs {
		if r.Type == TypeCell || r.Type == TypeVerdict {
			out = append(out, r)
		}
	}
	return out, nil
}

// LatestRunWithCells returns the most recent run (by append order) of
// the given source ("" = any) that has at least one cell record, and
// that run's cell records.
func (s *Store) LatestRunWithCells(source string) (Record, []Record, error) {
	runs := s.Runs()
	for i := len(runs) - 1; i >= 0; i-- {
		if source != "" && runs[i].Source != source {
			continue
		}
		cells, err := s.CellsOfRun(runs[i].RunID)
		if err != nil {
			return Record{}, nil, err
		}
		if len(cells) > 0 {
			return runs[i], cells, nil
		}
	}
	return Record{}, nil, fmt.Errorf("store: no run with recorded cells%s in %s", sourceClause(source), s.dir)
}

// PreviousRunWithCells returns the latest run with cells that was
// appended before the given run.
func (s *Store) PreviousRunWithCells(before string, source string) (Record, []Record, error) {
	runs := s.Runs()
	idx := -1
	for i, r := range runs {
		if r.RunID == before {
			idx = i
			break
		}
	}
	if idx < 0 {
		return Record{}, nil, fmt.Errorf("store: unknown run id %q", before)
	}
	for i := idx - 1; i >= 0; i-- {
		if source != "" && runs[i].Source != source {
			continue
		}
		cells, err := s.CellsOfRun(runs[i].RunID)
		if err != nil {
			return Record{}, nil, err
		}
		if len(cells) > 0 {
			return runs[i], cells, nil
		}
	}
	return Record{}, nil, fmt.Errorf("store: no earlier run with recorded cells%s before %s", sourceClause(source), before)
}

func sourceClause(source string) string {
	if source == "" {
		return ""
	}
	return " from source " + source
}

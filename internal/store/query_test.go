package store

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"
)

// seedCorpus appends two bench runs of the same 3-arch × 2-series × 3-x
// cell grid; scale multiplies the second run's values (2.0 = uniform 2x
// regression) and slowKey, when non-empty, is the only series scaled.
func seedCorpus(t *testing.T, dir string, scale float64, slowSeries string) (*Store, string, string) {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendRun := func(id string, mul float64) {
		if _, err := st.Append(Record{Type: TypeRun, RunID: id, Source: "bench", GitRev: "rev-" + id}); err != nil {
			t.Fatal(err)
		}
		for _, a := range []string{"knl", "broadwell", "power8"} {
			for _, series := range []string{"throttled", "sequential"} {
				for xi, x := range []string{"4K", "64K", "1M"} {
					v := float64(10*(xi+1)) * archFactor(a) * seriesFactor(series)
					if slowSeries == "" || series == slowSeries {
						v *= mul
					}
					sz, _ := ParseSizeLabel(x)
					if _, err := st.Append(Record{
						Type: TypeCell, RunID: id, Experiment: "fig7",
						Table: "Fig 7: Scatter algorithms, " + a, Arch: a,
						Collective: "scatter", Series: series, X: x,
						Size: sz, Value: v, Unit: "us",
					}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	appendRun("base", 1)
	appendRun("head", scale)
	return st, "base", "head"
}

func archFactor(a string) float64 {
	switch a {
	case "knl":
		return 3
	case "power8":
		return 2
	default:
		return 1
	}
}

func seriesFactor(s string) float64 {
	if s == "throttled" {
		return 0.5
	}
	return 1
}

func TestFilterPushdown(t *testing.T) {
	st, base, head := seedCorpus(t, filepath.Join(t.TempDir(), "q.store"), 1, "")
	defer st.Close()

	knl, err := st.Select(Filter{Type: TypeCell, Arch: "knl"})
	if err != nil {
		t.Fatal(err)
	}
	if len(knl) != 12 { // 2 runs × 2 series × 3 x
		t.Fatalf("arch filter: %d records, want 12", len(knl))
	}
	for _, r := range knl {
		if r.Arch != "knl" || r.Type != TypeCell {
			t.Fatalf("filter leak: %+v", r)
		}
	}
	big, err := st.Select(Filter{Type: TypeCell, MinSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(big) != 24 { // 64K and 1M rows only
		t.Fatalf("size filter: %d records, want 24", len(big))
	}
	headOnly, err := st.Select(Filter{RunID: head, Type: TypeCell})
	if err != nil {
		t.Fatal(err)
	}
	baseOnly, err := st.Select(Filter{RunID: base, Type: TypeCell})
	if err != nil {
		t.Fatal(err)
	}
	if len(headOnly) != 18 || len(baseOnly) != 18 {
		t.Fatalf("run filters: %d/%d, want 18/18", len(baseOnly), len(headOnly))
	}
}

func TestDeltaIdenticalRunsPass(t *testing.T) {
	st, base, head := seedCorpus(t, filepath.Join(t.TempDir(), "q.store"), 1, "")
	defer st.Close()
	b, _ := st.Select(Filter{RunID: base, Type: TypeCell})
	h, _ := st.Select(Filter{RunID: head, Type: TypeCell})
	ds, onlyB, onlyH := Deltas(b, h)
	if len(ds) != 18 || len(onlyB) != 0 || len(onlyH) != 0 {
		t.Fatalf("deltas %d onlyBase %d onlyHead %d", len(ds), len(onlyB), len(onlyH))
	}
	for _, d := range ds {
		if d.Ratio() != 1 {
			t.Fatalf("identical runs: ratio %v at %v", d.Ratio(), d.Key)
		}
	}
	regs := Regressions(ds, RegressOpts{Threshold: 1.25})
	if len(regs) != 0 {
		t.Fatalf("identical runs flagged %d regressions", len(regs))
	}
}

func TestDeltaFlagsInjectedRegression(t *testing.T) {
	st, base, head := seedCorpus(t, filepath.Join(t.TempDir(), "q.store"), 2.0, "sequential")
	defer st.Close()
	b, _ := st.Select(Filter{RunID: base, Type: TypeCell})
	h, _ := st.Select(Filter{RunID: head, Type: TypeCell})
	ds, _, _ := Deltas(b, h)
	regs := Regressions(ds, RegressOpts{Threshold: 1.25})
	if len(regs) != 9 { // 3 archs × 3 x of the slowed series
		t.Fatalf("flagged %d cells, want 9", len(regs))
	}
	for _, d := range regs {
		if d.Key.Series != "sequential" {
			t.Fatalf("flagged untouched series: %v", d.Key)
		}
		if math.Abs(d.Ratio()-2) > 1e-12 {
			t.Fatalf("ratio %v, want 2", d.Ratio())
		}
	}
	// Worst-first ordering is stable.
	for i := 1; i < len(regs); i++ {
		if regs[i].Ratio() > regs[i-1].Ratio() {
			t.Fatal("regressions not sorted worst-first")
		}
	}
	// A looser threshold tolerates the same 2x.
	if n := len(Regressions(ds, RegressOpts{Threshold: 2.5})); n != 0 {
		t.Fatalf("threshold 2.5 still flagged %d", n)
	}
}

func TestRegressOptsMinValue(t *testing.T) {
	ds := []Delta{
		{Key: Key{Series: "noise"}, Base: 0.001, Head: 0.004},
		{Key: Key{Series: "real"}, Base: 10, Head: 40},
	}
	regs := Regressions(ds, RegressOpts{Threshold: 1.5, MinValue: 0.05})
	if len(regs) != 1 || regs[0].Key.Series != "real" {
		t.Fatalf("min-value gating failed: %+v", regs)
	}
	if err := (RegressOpts{Threshold: 1.0}).Validate(); err == nil {
		t.Fatal("threshold 1.0 accepted")
	}
	if err := (RegressOpts{Threshold: 1.2, MinValue: -1}).Validate(); err == nil {
		t.Fatal("negative min-value accepted")
	}
}

func TestLatestAndPreviousRunWithCells(t *testing.T) {
	st, base, head := seedCorpus(t, filepath.Join(t.TempDir(), "q.store"), 1, "")
	defer st.Close()
	// An empty trailing run (no cells) must be skipped.
	if _, err := st.Append(Record{Type: TypeRun, RunID: "empty", Source: "bench"}); err != nil {
		t.Fatal(err)
	}
	run, cells, err := st.LatestRunWithCells("bench")
	if err != nil {
		t.Fatal(err)
	}
	if run.RunID != head || len(cells) != 18 {
		t.Fatalf("latest = %s with %d cells, want %s/18", run.RunID, len(cells), head)
	}
	prev, pcells, err := st.PreviousRunWithCells(head, "")
	if err != nil {
		t.Fatal(err)
	}
	if prev.RunID != base || len(pcells) != 18 {
		t.Fatalf("previous = %s with %d cells, want %s/18", prev.RunID, len(pcells), base)
	}
	if _, _, err := st.PreviousRunWithCells(base, ""); err == nil {
		t.Fatal("previous of the first run should fail")
	}
	if _, _, err := st.PreviousRunWithCells("nope", ""); err == nil {
		t.Fatal("unknown run id should fail")
	}
}

func TestDeltaDisjointKeys(t *testing.T) {
	b := []Record{{Type: TypeCell, Experiment: "a", Series: "s", X: "1", Value: 1}}
	h := []Record{{Type: TypeCell, Experiment: "b", Series: "s", X: "1", Value: 1}}
	ds, onlyB, onlyH := Deltas(b, h)
	if len(ds) != 0 || len(onlyB) != 1 || len(onlyH) != 1 {
		t.Fatalf("disjoint join: %d/%d/%d", len(ds), len(onlyB), len(onlyH))
	}
}

func TestParseSizeLabel(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"4K", 4096, true}, {"1M", 1 << 20, true}, {"1024", 1024, true},
		{"2G", 2 << 30, true}, {"", 0, false}, {"8 readers", 0, false},
		{"-4K", 0, false}, {"K", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseSizeLabel(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseSizeLabel(%q) = %d,%v want %d,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Experiment: "tab6", Arch: "knl", Collective: "gather", Series: "seq-read", X: "64K"}
	want := "tab6 · knl/gather · seq-read @ 64K"
	if got := k.String(); got != want {
		t.Fatalf("Key.String() = %q, want %q", got, want)
	}
	if got := (Key{Experiment: "bench.sh", Series: "tab6_seconds_j1"}).String(); got != "bench.sh · tab6_seconds_j1" {
		t.Fatalf("metric key renders %q", got)
	}
	_ = fmt.Sprintf("%v", k)
}

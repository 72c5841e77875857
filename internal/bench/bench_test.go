package bench

import (
	"math"
	"strings"
	"testing"
)

var quick = Options{Quick: true}

// raceExpensive marks the experiments whose quick-mode sweeps are too
// slow to re-run under the race detector on the single-CPU CI hosts
// (each >=1s natively, ~10x that raced). They are skipped only in the
// -race pass; the plain test run keeps full coverage.
var raceExpensive = map[string]bool{
	"fig9": true, "fig10": true, "fig15": true, "fig16": true,
	"tab6": true, "tab7": true, "x5": true, "x10": true, "x11": true,
	"x12": true, "x13": true,
}

func skipIfRaceExpensive(t *testing.T, id string) {
	t.Helper()
	if raceDetectorOn && raceExpensive[id] {
		t.Skipf("%s is too expensive under the race detector; covered by the non-race pass", id)
	}
}

func tablesOf(t *testing.T, id string, o Options) []Table {
	t.Helper()
	skipIfRaceExpensive(t, id)
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	return e.Tables(o)
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"tab3", "tab4", "tab5", "tab6", "tab7",
		"x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "x9", "x10", "x11", "x12", "x13", // extensions
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing experiment %s", id)
		}
	}
	if got := len(Registry()); got != len(want) {
		t.Errorf("registry has %d experiments, want %d", got, len(want))
	}
}

func TestRegistryOrdering(t *testing.T) {
	reg := Registry()
	var ids []string
	for _, e := range reg {
		ids = append(ids, e.ID)
	}
	joined := strings.Join(ids, " ")
	if !strings.HasPrefix(joined, "fig1 fig2") || !strings.Contains(joined, "fig9 fig10") {
		t.Fatalf("bad ordering: %s", joined)
	}
}

func TestTablePrinting(t *testing.T) {
	tb := Table{
		Title:   "demo",
		XHeader: "size",
		XLabels: []string{"1K", "2K"},
		Series:  []Series{{Name: "a", Values: []float64{1.5, 2000000}}},
		Notes:   []string{"hello"},
	}
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "1K", "2K", "1.50", "2e+06", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTableGet(t *testing.T) {
	tb := Table{Series: []Series{{Name: "a", Values: []float64{7}}}}
	if v, ok := tb.Get("a", 0); !ok || v != 7 {
		t.Fatal("Get failed")
	}
	if _, ok := tb.Get("a", 5); ok {
		t.Fatal("out-of-range index resolved")
	}
	if _, ok := tb.Get("zzz", 0); ok {
		t.Fatal("unknown series resolved")
	}
}

func lastVal(t *testing.T, tb Table, series string) float64 {
	t.Helper()
	v, ok := tb.Get(series, len(tb.XLabels)-1)
	if !ok {
		t.Fatalf("series %q missing in %q (have %v)", series, tb.Title, seriesNames(tb))
	}
	return v
}

func firstVal(t *testing.T, tb Table, series string) float64 {
	t.Helper()
	v, ok := tb.Get(series, 0)
	if !ok {
		t.Fatalf("series %q missing in %q (have %v)", series, tb.Title, seriesNames(tb))
	}
	return v
}

func seriesNames(tb Table) []string {
	var out []string
	for _, s := range tb.Series {
		out = append(out, s.Name)
	}
	return out
}

func TestFig1SmallJobsDominate(t *testing.T) {
	tb := tablesOf(t, "fig1", quick)[0]
	if len(tb.Series) != 2 {
		t.Fatalf("want 2 series, got %v", seriesNames(tb))
	}
	if firstVal(t, tb, "jobs (x1000)") <= lastVal(t, tb, "jobs (x1000)") {
		t.Fatal("single-node jobs do not dominate the tail")
	}
}

func TestFig2SourceProcessIsTheBottleneck(t *testing.T) {
	tabs := tablesOf(t, "fig2", quick)
	if len(tabs) != 3 {
		t.Fatalf("want 3 panels, got %d", len(tabs))
	}
	pairs, same, diff := tabs[0], tabs[1], tabs[2]
	reader := pairs.Series[len(pairs.Series)-1].Name // max concurrency
	// One-to-all inflates far beyond disjoint pairs at max concurrency.
	if lastVal(t, same, reader) < 3*lastVal(t, pairs, reader) {
		t.Errorf("one-to-all %s not clearly above disjoint pairs", reader)
	}
	// Same vs different buffers: identical (the mm lock is per process).
	for xi := range same.XLabels {
		a, _ := same.Get(reader, xi)
		b, _ := diff.Get(reader, xi)
		if relDiff(a, b) > 0.01 {
			t.Errorf("same/diff buffer mismatch at %s: %g vs %g", same.XLabels[xi], a, b)
		}
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	m := a
	if b > m {
		m = b
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / m
}

func TestFig3ContentionOnAllArchitectures(t *testing.T) {
	for _, tb := range tablesOf(t, "fig3", quick) {
		one := lastVal(t, tb, "1 readers")
		crowd := lastVal(t, tb, tb.Series[len(tb.Series)-1].Name)
		if crowd < 3*one {
			t.Errorf("%s: full concurrency %g not clearly above single reader %g", tb.Title, crowd, one)
		}
	}
}

func TestFig4LockGrowsPinDoesNot(t *testing.T) {
	tabs := tablesOf(t, "fig4", quick)
	noCont, highCont := tabs[0], tabs[2]
	li := len(noCont.XLabels) - 1
	l0, _ := noCont.Get("acquire-locks", li)
	l1, _ := highCont.Get("acquire-locks", li)
	if l1 < 5*l0 {
		t.Errorf("lock time did not inflate: %g -> %g", l0, l1)
	}
	p0, _ := noCont.Get("pin-pages", li)
	p1, _ := highCont.Get("pin-pages", li)
	if relDiff(p0, p1) > 0.01 {
		t.Errorf("pin time changed with contention: %g -> %g", p0, p1)
	}
}

func TestFig5GammaShapes(t *testing.T) {
	for _, tb := range tablesOf(t, "fig5", quick) {
		// Page-count independence: the three page series agree.
		for xi := range tb.XLabels {
			a, _ := tb.Get("10 pages", xi)
			b, _ := tb.Get("100 pages", xi)
			if relDiff(a, b) > 0.05 {
				t.Errorf("%s: gamma varies with pages at c=%s: %g vs %g", tb.Title, tb.XLabels[xi], a, b)
			}
		}
		// Fit tracks the measurements at the top of the range.
		fit := lastVal(t, tb, "best-fit")
		meas := lastVal(t, tb, "50 pages")
		if relDiff(fit, meas) > 0.2 {
			t.Errorf("%s: fit %g far from measured %g", tb.Title, fit, meas)
		}
	}
}

func TestFig6SweetSpots(t *testing.T) {
	tabs := tablesOf(t, "fig6", Options{Arch: "knl"})
	tb := tabs[0]
	li := len(tb.XLabels) - 1 // 4M
	r8, _ := tb.Get("8 readers", li)
	r64, _ := tb.Get("64 readers", li)
	if r8 < 2.5 {
		t.Errorf("KNL 8-reader relative throughput %g at 4M, want > 2.5", r8)
	}
	if r64 >= 1 {
		t.Errorf("KNL 64-reader relative throughput %g at 4M, want < 1 (parallel reads must lose)", r64)
	}
}

func TestFig7ThrottleSweetSpotKNL(t *testing.T) {
	tb := tablesOf(t, "fig7", Options{Arch: "knl", Quick: true})[0]
	li := len(tb.XLabels) - 1 // 4M
	t8 := lastVal(t, tb, "throttle=8")
	par := lastVal(t, tb, "parallel-read")
	seq := lastVal(t, tb, "sequential-write")
	if !(t8 < par && t8 < seq) {
		t.Fatalf("throttle=8 (%g) not best at 4M: parallel %g sequential %g", t8, par, seq)
	}
	if par <= seq {
		t.Fatalf("parallel read (%g) must be worst at 4M (sequential %g)", par, seq)
	}
	// Small sizes: parallel read beats sequential write.
	p0, _ := tb.Get("parallel-read", 0)
	s0, _ := tb.Get("sequential-write", 0)
	if p0 >= s0 {
		t.Fatalf("at 4K parallel read (%g) should beat sequential write (%g)", p0, s0)
	}
	_ = li
}

func TestFig8GatherMirrorsScatter(t *testing.T) {
	tb := tablesOf(t, "fig8", Options{Arch: "power8", Quick: true})[0]
	t10 := lastVal(t, tb, "throttle=10")
	t2 := lastVal(t, tb, "throttle=2")
	par := lastVal(t, tb, "parallel-write")
	if !(t10 < t2 && t10 < par) {
		t.Fatalf("Power8 throttle=10 (%g) not best: throttle=2 %g, parallel %g", t10, t2, par)
	}
}

func TestFig9NativeCollectiveWins(t *testing.T) {
	for _, tb := range tablesOf(t, "fig9", quick) {
		// Small/medium (4K): the native collective beats the pt2pt
		// design (no per-message RTS/CTS or matching) and clearly beats
		// the two-copy SHMEM design.
		coll0, _ := tb.Get("CMA-coll", 0)
		pt2pt0, _ := tb.Get("CMA-pt2pt", 0)
		shmem0, _ := tb.Get("SHMEM", 0)
		if coll0 >= pt2pt0 {
			t.Errorf("%s at 4K: CMA-coll %g not below pt2pt %g", tb.Title, coll0, pt2pt0)
		}
		if coll0 >= 0.8*shmem0 {
			t.Errorf("%s at 4K: CMA-coll %g not clearly below shmem %g", tb.Title, coll0, shmem0)
		}
		// Large (1M): coll and pt2pt converge (<= 15% apart), both beat SHMEM.
		collL := lastVal(t, tb, "CMA-coll")
		pt2ptL := lastVal(t, tb, "CMA-pt2pt")
		shmemL := lastVal(t, tb, "SHMEM")
		if relDiff(collL, pt2ptL) > 0.15 {
			t.Errorf("%s at 1M: coll %g and pt2pt %g should converge", tb.Title, collL, pt2ptL)
		}
		if collL >= shmemL {
			t.Errorf("%s at 1M: coll %g not below shmem %g", tb.Title, collL, shmemL)
		}
	}
}

func TestFig10SocketAwareRings(t *testing.T) {
	tb := tablesOf(t, "fig10", Options{Arch: "broadwell", Quick: true})[0]
	n1 := lastVal(t, tb, "ring-neighbor-1")
	far := 0.0
	for _, s := range tb.Series {
		if strings.HasPrefix(s.Name, "ring-neighbor-") && s.Name != "ring-neighbor-1" {
			far = s.Values[len(s.Values)-1]
		}
	}
	if far == 0 {
		t.Fatal("no far-stride neighbor series on Broadwell")
	}
	if n1 >= far {
		t.Fatalf("neighbor-1 (%g) should beat the inter-socket stride (%g)", n1, far)
	}
	// Bruck loses at 1M (extra copies).
	bruck := lastVal(t, tb, "bruck")
	ring := lastVal(t, tb, "ring-source-read")
	if bruck <= ring {
		t.Fatalf("bruck (%g) should lose to ring-source (%g) at 1M", bruck, ring)
	}
}

func TestFig11BcastShapes(t *testing.T) {
	tb := tablesOf(t, "fig11", Options{Arch: "knl", Quick: true})[0]
	li := len(tb.XLabels) - 1
	sa, _ := tb.Get("scatter-allgather", li)
	kn := lastVal(t, tb, "knomial-read-9")
	dr := lastVal(t, tb, "parallel-read")
	dw := lastVal(t, tb, "sequential-write")
	if sa >= kn {
		t.Fatalf("scatter-allgather (%g) should win at 4M over knomial (%g)", sa, kn)
	}
	if kn >= dr || kn >= dw {
		t.Fatalf("knomial (%g) should beat direct read (%g) and write (%g)", kn, dr, dw)
	}
}

func TestFig12ModelTracksSim(t *testing.T) {
	for _, tb := range tablesOf(t, "fig12", Options{Arch: "knl", Quick: true}) {
		for _, pair := range [][2]string{{"actual-1", "model-1"}, {"actual-2", "model-2"}, {"actual-3", "model-3"}} {
			// Validate at the largest size (the kernel-assisted regime).
			a := lastVal(t, tb, pair[0])
			m := lastVal(t, tb, pair[1])
			if relDiff(a, m) > 0.3 {
				t.Errorf("%s: %s=%g vs %s=%g (>30%%)", tb.Title, pair[0], a, pair[1], m)
			}
		}
	}
}

func TestFig13ProposedWinsScatter(t *testing.T) {
	for _, archName := range []string{"knl", "power8"} {
		tb := tablesOf(t, "fig13", Options{Arch: archName, Quick: true})[0]
		prop := lastVal(t, tb, "proposed")
		for _, s := range tb.Series {
			if s.Name == "proposed" {
				continue
			}
			if v := s.Values[len(s.Values)-1]; v < prop {
				t.Errorf("%s: %s (%g) beats proposed (%g) at the largest size", archName, s.Name, v, prop)
			}
		}
	}
}

func TestFig15AlltoallLargeConverges(t *testing.T) {
	tb := tablesOf(t, "fig15", Options{Arch: "knl", Quick: true})[0]
	prop := lastVal(t, tb, "proposed")
	mv := lastVal(t, tb, "mvapich2")
	// Large alltoall: data movement dominates; improvement is modest
	// (5-15% per the paper) but never negative.
	if prop > 1.01*mv {
		t.Fatalf("proposed (%g) worse than mvapich2 (%g) at 1M", prop, mv)
	}
	if mv > 1.6*prop {
		t.Fatalf("large-message alltoall gap suspiciously large: %g vs %g", mv, prop)
	}
}

func TestFig17TwoLevelGatherScaling(t *testing.T) {
	tabs := tablesOf(t, "fig17", quick)
	if len(tabs) < 2 {
		t.Fatalf("want >= 2 node counts, got %d", len(tabs))
	}
	// The hierarchical advantage peaks at small/medium sizes (the flat
	// design pays a per-message network cost scaling with total procs);
	// compare the best gap across the sweep, as Table VII-style maxima do.
	gap := func(tb Table) float64 {
		best := 0.0
		for xi := range tb.XLabels {
			prop, _ := tb.Get("proposed-two-level", xi)
			flat, _ := tb.Get("flat-pt2pt (mvapich2-like)", xi)
			if g := flat / prop; g > best {
				best = g
			}
		}
		return best
	}
	g2 := gap(tabs[0])
	g4 := gap(tabs[1])
	if g2 <= 1 {
		t.Fatalf("two-level not winning at 2 nodes: gap %g", g2)
	}
	if g4 <= g2 {
		t.Fatalf("gap should grow with node count: 2 nodes %g, 4 nodes %g", g2, g4)
	}
}

func TestTab3Ordering(t *testing.T) {
	for _, tb := range tablesOf(t, "tab3", quick) {
		v := tb.Series[0].Values
		for i := 1; i < len(v); i++ {
			if v[i] <= v[i-1] {
				t.Errorf("%s: T%d (%g) <= T%d (%g)", tb.Title, i+1, v[i], i, v[i-1])
			}
		}
	}
}

func TestTab4MatchesPaper(t *testing.T) {
	tb := tablesOf(t, "tab4", quick)[0]
	wantAlpha := map[string]float64{"knl": 1.43, "broadwell": 0.98, "power8": 0.75}
	for _, s := range tb.Series {
		if got := s.Values[0]; relDiff(got, wantAlpha[s.Name]) > 0.02 {
			t.Errorf("%s alpha = %g, want %g", s.Name, got, wantAlpha[s.Name])
		}
	}
}

func TestTab6SpeedupThresholds(t *testing.T) {
	tabs := speedupTables(Options{Quick: true, Arch: "knl"}, false)
	tb := tabs[0]
	// Scatter/Gather: multi-x improvements; Allgather/Alltoall >= ~1.4x;
	// Bcast: the contention-unaware openmpi design loses by a lot.
	for xi, coll := range tb.XLabels {
		for _, s := range tb.Series {
			v := s.Values[xi]
			switch coll {
			case "scatter", "gather":
				if v < 2.5 {
					t.Errorf("%s %s speedup %g, want >= 2.5", coll, s.Name, v)
				}
			case "allgather", "alltoall":
				if v < 1.3 {
					t.Errorf("%s %s speedup %g, want >= 1.3", coll, s.Name, v)
				}
			}
		}
	}
	if v, _ := tb.Get("openmpi", 0); v < 5 { // bcast row
		t.Errorf("openmpi bcast speedup %g, want >= 5 (contention-unaware prior art)", v)
	}
}

func TestTab7LargestSizeStillWins(t *testing.T) {
	tabs := speedupTables(Options{Quick: true, Arch: "broadwell"}, true)
	for _, s := range tabs[0].Series {
		for xi, v := range s.Values {
			if v < 0.95 {
				t.Errorf("largest-size speedup vs %s for %s = %g (< ~1)", s.Name, tabs[0].XLabels[xi], v)
			}
		}
	}
}

func TestX1MechanismSpectrum(t *testing.T) {
	tabs := tablesOf(t, "x1", quick)
	throttled, naive := tabs[0], tabs[1]
	li := len(throttled.XLabels) - 1
	// CMA/KNEM/LiMIC within a few percent of each other (same data path).
	cma, _ := throttled.Get("cma", li)
	knem, _ := throttled.Get("knem", li)
	if relDiff(cma, knem) > 0.05 {
		t.Errorf("cma %g vs knem %g should be close under throttling", cma, knem)
	}
	// XPMEM rescues the naive design (no page locking).
	nCMA, _ := naive.Get("cma", li)
	nXP, _ := naive.Get("xpmem", li)
	if nXP > nCMA/5 {
		t.Errorf("naive gather: xpmem %g not clearly below cma %g", nXP, nCMA)
	}
}

func TestX2SkewDynamics(t *testing.T) {
	tabs := tablesOf(t, "x2", quick)
	relief, robust := tabs[0], tabs[1]
	// Direct read collapses with spread arrivals.
	dr0 := firstVal(t, relief, "direct-read")
	drSkew := lastVal(t, relief, "direct-read")
	if drSkew > dr0/5 {
		t.Errorf("direct-read under 10ms skew %g not far below %g", drSkew, dr0)
	}
	// Rings are robust: within 1%.
	r0 := firstVal(t, robust, "ring-source-read")
	rS := lastVal(t, robust, "ring-source-read")
	if relDiff(r0, rS) > 0.01 {
		t.Errorf("ring-source moved under skew: %g vs %g", r0, rS)
	}
}

func TestX3ReduceDesigns(t *testing.T) {
	tb := tablesOf(t, "x3", quick)[0]
	deep := lastVal(t, tb, "knomial-2")
	wide := lastVal(t, tb, "knomial-9")
	naive := lastVal(t, tb, "parallel-write")
	if deep >= wide {
		t.Errorf("deep tree (%g) should beat wide tree (%g) for reduce", deep, wide)
	}
	if naive < 3*deep {
		t.Errorf("parallel-write (%g) should lose badly to the tree (%g)", naive, deep)
	}
}

func TestX4PipeliningHelpsAtScale(t *testing.T) {
	tb := tablesOf(t, "x4", quick)[0]
	plain := lastVal(t, tb, "two-level")
	piped := lastVal(t, tb, "pipelined-4")
	if piped >= plain {
		t.Errorf("pipelined-4 (%g) not below plain two-level (%g) at 1M", piped, plain)
	}
}

func TestX6ModelAudit(t *testing.T) {
	tb := tablesOf(t, "x6", quick)[0]
	// Every closed form stays within 20% of the simulator at 1M (the
	// paper's formulas are within ~5%; the extension formulas are looser).
	li := len(tb.XLabels) - 1
	_ = li
	for _, s := range tb.Series {
		for xi, v := range s.Values {
			if v > 20 {
				t.Errorf("%s at %s: model error %.1f%% > 20%%", tb.XLabels[xi], s.Name, v)
			}
		}
	}
}

func TestX7EmergentVsCalibrated(t *testing.T) {
	tb := tablesOf(t, "x7", quick)[0]
	li := len(tb.XLabels) - 1 // 63 readers
	em, _ := tb.Get("emergent-fifo", li)
	cal, _ := tb.Get("calibrated-gamma", li)
	lin, _ := tb.Get("linear-reference", li)
	if em > 1.5*lin {
		t.Errorf("emergent inflation %.1f should stay near-linear (<= 1.5x %g)", em, lin)
	}
	if cal < 3*em {
		t.Errorf("calibrated gamma %.0f should dwarf emergent %.1f", cal, em)
	}
}

func TestFprintPlot(t *testing.T) {
	tb := Table{
		Title:   "plot-demo",
		XHeader: "size",
		XLabels: []string{"1K", "4K", "16K"},
		Series: []Series{
			{Name: "fast", Values: []float64{10, 40, 160}},
			{Name: "slow", Values: []float64{100, 400, 1600}},
		},
	}
	var sb strings.Builder
	tb.FprintPlot(&sb, 40, 10)
	out := sb.String()
	for _, want := range []string{"plot-demo", "legend:", "*=fast", "o=slow", "1K", "16K", "+---"} {
		if !strings.Contains(out, want) {
			t.Errorf("plot missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("plot has no data glyphs:\n%s", out)
	}
}

func TestFprintPlotEmptyAndDegenerate(t *testing.T) {
	var sb strings.Builder
	(&Table{Title: "empty"}).FprintPlot(&sb, 20, 5)
	if !strings.Contains(sb.String(), "no positive data") {
		t.Fatal("empty plot not handled")
	}
	sb.Reset()
	tb := Table{Title: "flat", XLabels: []string{"a"}, Series: []Series{{Name: "s", Values: []float64{5}}}}
	tb.FprintPlot(&sb, 20, 5) // single point, hi==lo
	if !strings.Contains(sb.String(), "legend:") {
		t.Fatal("degenerate plot failed")
	}
}

func TestFprintCSV(t *testing.T) {
	tb := Table{
		Title:   "csv-demo",
		XHeader: "size,comma",
		XLabels: []string{"1K"},
		Series:  []Series{{Name: `quo"te`, Values: []float64{2.5}}},
	}
	var sb strings.Builder
	tb.FprintCSV(&sb)
	out := sb.String()
	for _, want := range []string{`"size,comma"`, `"quo""te"`, "1K,2.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestRunFormatVariants(t *testing.T) {
	e, _ := ByID("tab5")
	for _, f := range []Format{FormatTable, FormatPlot, FormatCSV} {
		var sb strings.Builder
		if err := e.RunFormatSink(&sb, quick, f, nil); err != nil {
			t.Fatalf("format %d: %v", f, err)
		}
		if !strings.Contains(sb.String(), "tab5") {
			t.Fatalf("format %d output missing header", f)
		}
	}
}

// TestRunRejectsBadDeadline: Options.Deadline reaches the recovery
// harness only if liveness.CheckDeadline accepts it; otherwise Run and
// RunFormatSink return the error and print nothing, instead of a rank
// panicking inside x9's recovery run.
func TestRunRejectsBadDeadline(t *testing.T) {
	x9, ok := ByID("x9")
	if !ok {
		t.Fatal("x9 not registered")
	}
	for _, d := range []float64{1, 5, 10, -5, math.NaN(), math.Inf(1)} {
		var out strings.Builder
		o := Options{Quick: true, Deadline: d}
		if err := x9.Run(&out, o); err == nil || out.Len() != 0 {
			t.Errorf("Run with deadline %v: err %v, %d bytes printed; want an error and no output", d, err, out.Len())
		}
		if err := x9.RunFormatSink(&out, o, FormatCSV, nil); err == nil || out.Len() != 0 {
			t.Errorf("RunFormatSink with deadline %v: err %v, %d bytes printed; want an error and no output", d, err, out.Len())
		}
	}
}

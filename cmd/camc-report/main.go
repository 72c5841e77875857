// Command camc-report queries the persistent results store
// (internal/store): the durable, append-only record of every bench,
// fuzz and chaos run. It answers "which cells regressed since run X?",
// renders trend tables across runs, and regenerates the compatibility
// JSON snapshot (results/BENCH_sweep.json) from the store.
//
// Usage:
//
//	camc-report runs    -store results/camc.store
//	camc-report cells   -store results/camc.store -experiment fig7 -arch knl
//	camc-report trend   -store results/camc.store -experiment tab6 -last 5
//	camc-report regress -store scratch.store -against results/baseline.store -threshold 1.25
//	camc-report regress -store results/camc.store -base bench-xyz
//	camc-report regress -store scratch.store -against results/baseline.store -exact
//	camc-report export  -store results/camc.store -out results/BENCH_sweep.json
//	camc-report begin   -store results/camc.store -source bench -jobs 8
//	camc-report append  -store results/camc.store -run <id> -experiment bench.sh -series tab6_seconds_j1 -value 13.5 -unit s
//	camc-report now
//
// regress exits 0 when no cell breaches the threshold and 1 when any
// does, so CI can gate on it mechanically. With -exact it instead
// requires every cell (speedup cells included) to be bit-identical on
// both sides and exits 1 on any difference or one-sided key.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"camc/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usageText = `usage: camc-report <command> [flags]

commands:
  runs     list recorded runs (id, time, source, git rev, cells)
  cells    list matching cell/verdict records
  trend    render per-cell values across runs as a table
  regress  compare a head run against a baseline; exit 1 on breach
  export   regenerate the BENCH_sweep.json compatibility snapshot
  begin    record a new run and print its id (for shell scripts)
  append   append one metric cell under an existing run
  now      print wall-clock seconds (portable timer for scripts)

run 'camc-report <command> -h' for the command's flags.
`

// run is the testable entry point (0 ok, 1 runtime error or regression
// breach, 2 usage error).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "runs":
		return cmdRuns(rest, stdout, stderr)
	case "cells":
		return cmdCells(rest, stdout, stderr)
	case "trend":
		return cmdTrend(rest, stdout, stderr)
	case "regress":
		return cmdRegress(rest, stdout, stderr)
	case "export":
		return cmdExport(rest, stdout, stderr)
	case "begin":
		return cmdBegin(rest, stdout, stderr)
	case "append":
		return cmdAppend(rest, stdout, stderr)
	case "now":
		fmt.Fprintf(stdout, "%d.%09d\n", time.Now().Unix(), time.Now().Nanosecond())
		return 0
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usageText)
		return 0
	default:
		fmt.Fprintf(stderr, "unknown command %q\n\n%s", cmd, usageText)
		return 2
	}
}

func newFlags(cmd string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("camc-report "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// openRO opens a store for querying; it never creates directories.
// The second return is the exit code on failure (0 = opened fine).
func openRO(path string, stderr io.Writer) (*store.Store, int) {
	if path == "" {
		fmt.Fprintln(stderr, "missing -store <dir>")
		return nil, 2
	}
	st, err := store.Open(path, store.Options{ReadOnly: true})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	return st, 0
}

func newTabWriter(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

func cmdRuns(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("runs", stderr)
	storeF := fs.String("store", "", "store directory")
	source := fs.String("source", "", "restrict to one source (bench, fuzz, ...)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, ec := openRO(*storeF, stderr)
	if ec != 0 {
		return ec
	}
	tw := newTabWriter(stdout)
	fmt.Fprintln(tw, "RUN\tTIME\tSOURCE\tGITREV\tHOST\tJOBS\tSEED\tCELLS\tNOTE")
	for _, r := range st.Runs() {
		if *source != "" && r.Source != *source {
			continue
		}
		cells, err := st.CellsOfRun(r.RunID)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%s\n",
			r.RunID, timeLabel(r.Unix), r.Source, r.GitRev, r.Host, r.Jobs, r.Seed, len(cells), r.Note)
	}
	tw.Flush()
	return 0
}

// cellFilterFlags registers the shared record filters.
func cellFilterFlags(fs *flag.FlagSet) *store.Filter {
	f := &store.Filter{}
	fs.StringVar(&f.RunID, "run", "", "restrict to one run id")
	fs.StringVar(&f.Experiment, "experiment", "", "restrict to one experiment id (fig7, tab6, bench.sh, fuzz)")
	fs.StringVar(&f.Arch, "arch", "", "restrict to one architecture (knl, broadwell, power8)")
	fs.StringVar(&f.Collective, "kind", "", "restrict to one collective kind (scatter, gather, ...)")
	fs.StringVar(&f.Series, "series", "", "restrict to one series/metric name")
	fs.Int64Var(&f.MinSize, "min-size", 0, "restrict to cells with message size >= this (bytes)")
	fs.Int64Var(&f.MaxSize, "max-size", 0, "restrict to cells with message size <= this (bytes)")
	return f
}

func cmdCells(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("cells", stderr)
	storeF := fs.String("store", "", "store directory")
	typeF := fs.String("type", "cell", "record type: cell, verdict, run, or all")
	f := cellFilterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *typeF != "all" {
		t, ok := store.ParseType(*typeF)
		if !ok {
			fmt.Fprintf(stderr, "unknown -type %q (cell, verdict, run, or all)\n", *typeF)
			return 2
		}
		f.Type = t
	}
	st, ec := openRO(*storeF, stderr)
	if ec != 0 {
		return ec
	}
	tw := newTabWriter(stdout)
	fmt.Fprintln(tw, "SEQ\tTYPE\tRUN\tEXPERIMENT\tARCH\tKIND\tSERIES\tX\tVALUE\tVERDICT")
	n := 0
	err := st.Scan(*f, func(r store.Record) error {
		n++
		val := ""
		if r.Type != store.TypeRun {
			val = strings.TrimSpace(fmt.Sprintf("%.6g %s", r.Value, r.Unit))
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Seq, r.Type, r.RunID, r.Experiment, r.Arch, r.Collective, r.Series, r.X, val, r.Verdict)
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d records\n", n)
	return 0
}

func cmdTrend(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trend", stderr)
	storeF := fs.String("store", "", "store directory")
	last := fs.Int("last", 8, "how many most-recent runs to include")
	f := cellFilterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *last < 1 {
		fmt.Fprintln(stderr, "-last must be >= 1")
		return 2
	}
	st, ec := openRO(*storeF, stderr)
	if ec != 0 {
		return ec
	}
	f.Type = store.TypeCell

	// Keep the most recent -last runs that contribute matching cells.
	type runCol struct {
		run   store.Record
		cells map[store.Key]float64
	}
	var cols []runCol
	for _, r := range st.Runs() {
		cf := *f
		cf.RunID = r.RunID
		recs, err := st.Select(cf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if len(recs) == 0 {
			continue
		}
		byKey := map[store.Key]float64{}
		for _, rec := range recs {
			byKey[store.KeyOf(rec)] = rec.Value
		}
		cols = append(cols, runCol{r, byKey})
	}
	if len(cols) == 0 {
		fmt.Fprintln(stdout, "no matching cells in any run")
		return 0
	}
	if len(cols) > *last {
		cols = cols[len(cols)-*last:]
	}
	for i, c := range cols {
		fmt.Fprintf(stdout, "r%d = %s (rev %s, %s)\n", i+1, c.run.RunID, c.run.GitRev, timeLabel(c.run.Unix))
	}
	fmt.Fprintln(stdout)

	keySet := map[store.Key]bool{}
	for _, c := range cols {
		for k := range c.cells {
			keySet[k] = true
		}
	}
	keys := make([]store.Key, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	tw := newTabWriter(stdout)
	head := "CELL"
	for i := range cols {
		head += fmt.Sprintf("\tr%d", i+1)
	}
	fmt.Fprintln(tw, head)
	for _, k := range keys {
		row := k.String()
		for _, c := range cols {
			if v, okv := c.cells[k]; okv {
				row += fmt.Sprintf("\t%.6g", v)
			} else {
				row += "\t-"
			}
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d cells across %d runs\n", len(keys), len(cols))
	return 0
}

func cmdRegress(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("regress", stderr)
	var (
		storeF    = fs.String("store", "", "store directory holding the head run")
		against   = fs.String("against", "", "baseline store directory (default: the baseline run lives in -store)")
		baseRun   = fs.String("base", "", "baseline run id (default: latest run with cells in -against, or the run before head in -store)")
		headRun   = fs.String("head", "", "head run id (default: latest run with cells in -store)")
		threshold = fs.Float64("threshold", 1.25, "head/base latency ratio above which a cell regressed")
		minValue  = fs.Float64("min-value", 0.05, "ignore cells where both sides are below this (sub-noise)")
		exact     = fs.Bool("exact", false, "require every cell, speedup cells included, to match bit for bit; ignores -threshold and -min-value")
	)
	f := cellFilterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opts := store.RegressOpts{Threshold: *threshold, MinValue: *minValue}
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	st, ec := openRO(*storeF, stderr)
	if ec != 0 {
		return ec
	}

	var head store.Record
	var headCells []store.Record
	var err error
	if *headRun != "" {
		var found bool
		if head, found = st.RunByID(*headRun); !found {
			fmt.Fprintf(stderr, "unknown head run id %q in %s\n", *headRun, *storeF)
			return 1
		}
		headCells, err = st.CellsOfRun(*headRun)
	} else {
		head, headCells, err = st.LatestRunWithCells("")
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	var base store.Record
	var baseCells []store.Record
	switch {
	case *against != "":
		bst, bec := openRO(*against, stderr)
		if bec != 0 {
			return bec
		}
		if *baseRun != "" {
			var found bool
			if base, found = bst.RunByID(*baseRun); !found {
				fmt.Fprintf(stderr, "unknown base run id %q in %s\n", *baseRun, *against)
				return 1
			}
			baseCells, err = bst.CellsOfRun(*baseRun)
		} else {
			base, baseCells, err = bst.LatestRunWithCells("")
		}
	case *baseRun != "":
		var found bool
		if base, found = st.RunByID(*baseRun); !found {
			fmt.Fprintf(stderr, "unknown base run id %q in %s\n", *baseRun, *storeF)
			return 1
		}
		baseCells, err = st.CellsOfRun(*baseRun)
	default:
		base, baseCells, err = st.PreviousRunWithCells(head.RunID, "")
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	baseCmp := comparableCells(baseCells, *f, *exact)
	headCmp := comparableCells(headCells, *f, *exact)
	ds, onlyBase, onlyHead := store.Deltas(baseCmp, headCmp)

	fmt.Fprintf(stdout, "regress: head %s (rev %s) vs base %s (rev %s)\n",
		head.RunID, orUnknown(head.GitRev), base.RunID, orUnknown(base.GitRev))
	if *exact {
		return exactReport(stdout, stderr, ds, onlyBase, onlyHead)
	}
	regs := store.Regressions(ds, opts)
	fmt.Fprintf(stdout, "  %d cells compared (threshold %.2fx, min value %g); %d only in base, %d only in head\n",
		len(ds), *threshold, *minValue, len(onlyBase), len(onlyHead))
	if len(ds) == 0 {
		fmt.Fprintln(stderr, "regress: no comparable cells between the two runs (check filters and experiment sets)")
		return 1
	}
	for _, d := range regs {
		fmt.Fprintf(stdout, "  REGRESSED %6.2fx  %.6g -> %.6g %s  %s\n",
			d.Ratio(), d.Base, d.Head, d.Unit, d.Key)
	}
	if imp := improvements(ds, opts); len(imp) > 0 {
		fmt.Fprintf(stdout, "  (%d cells improved by the same margin; best %.2fx at %s)\n",
			len(imp), 1/imp[0].Ratio(), imp[0].Key)
	}
	if len(regs) > 0 {
		fmt.Fprintf(stdout, "FAIL: %d of %d cells regressed beyond %.2fx\n", len(regs), len(ds), *threshold)
		return 1
	}
	fmt.Fprintf(stdout, "OK: no cell regressed beyond %.2fx\n", *threshold)
	return 0
}

// maxExactLines caps how many differing or one-sided cells -exact
// prints.
const maxExactLines = 20

// exactReport is regress -exact's verdict: every joined cell must hold
// the same Float64bits and no key may be one-sided. It prints the first
// differences at full precision.
func exactReport(stdout, stderr io.Writer, ds []store.Delta, onlyBase, onlyHead []store.Key) int {
	fmt.Fprintf(stdout, "  %d cells compared bit for bit; %d only in base, %d only in head\n",
		len(ds), len(onlyBase), len(onlyHead))
	if len(ds) == 0 {
		fmt.Fprintln(stderr, "regress: no comparable cells between the two runs (check filters and experiment sets)")
		return 1
	}
	var lines []string
	differ := 0
	for _, d := range ds {
		if math.Float64bits(d.Base) != math.Float64bits(d.Head) {
			differ++
			lines = append(lines, fmt.Sprintf("  DIFFERS    %.17g -> %.17g %s  %s", d.Base, d.Head, d.Unit, d.Key))
		}
	}
	for _, k := range onlyBase {
		lines = append(lines, fmt.Sprintf("  ONLY BASE  %s", k))
	}
	for _, k := range onlyHead {
		lines = append(lines, fmt.Sprintf("  ONLY HEAD  %s", k))
	}
	if len(lines) == 0 {
		fmt.Fprintf(stdout, "OK: all %d cells bit-identical\n", len(ds))
		return 0
	}
	for i, l := range lines {
		if i == maxExactLines {
			fmt.Fprintf(stdout, "  ... %d more\n", len(lines)-i)
			break
		}
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "FAIL: %d of %d cells differ, %d only in base, %d only in head\n",
		differ, len(ds), len(onlyBase), len(onlyHead))
	return 1
}

// comparableCells keeps the cells a regression gate can judge. The
// ratio gate takes the latency-like ones: plain measurements, not
// speedup ratios ("x" unit), where a bigger head value is not worse.
// The exact gate (withRatios) takes every cell.
func comparableCells(recs []store.Record, f store.Filter, withRatios bool) []store.Record {
	f.RunID = "" // cells come from different runs by construction
	var out []store.Record
	for _, r := range recs {
		if r.Type != store.TypeCell || (r.Unit == "x" && !withRatios) {
			continue
		}
		if f.Match(r) {
			out = append(out, r)
		}
	}
	return out
}

func improvements(ds []store.Delta, o store.RegressOpts) []store.Delta {
	var out []store.Delta
	for _, d := range ds {
		if d.Base < o.MinValue && d.Head < o.MinValue {
			continue
		}
		if r := d.Ratio(); r > 0 && 1/r > o.Threshold {
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ratio() < out[j].Ratio() })
	return out
}

// seedBaseline is the pre-optimisation measurement block carried over
// from the original hand-written BENCH_sweep.json (captured once at the
// PR-1 tip on a 1-CPU Xeon 2.70GHz container); export keeps emitting it
// so the snapshot's shape stays compatible.
var seedBaseline = map[string]any{
	"comment":                "pre-optimisation: container/heap dispatcher with central scheduler goroutine, sequential sweeps; captured at the PR-1 tip on a 1-CPU Xeon 2.70GHz container. The parallel -j speedup only materialises on multi-core hosts; the dispatcher gains apply everywhere.",
	"tab6_seconds":           31.6,
	"dispatch_ns_per_event":  760.0,
	"dispatch_allocs_per_op": 2172,
	"selfwake_ns_per_event":  625.0,
	"selfwake_allocs_per_op": 2057,
	"schedule_ns_per_op":     100.4,
	"schedule_allocs_per_op": 2,
}

func cmdExport(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("export", stderr)
	storeF := fs.String("store", "", "store directory")
	out := fs.String("out", "-", "output path (- = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, ec := openRO(*storeF, stderr)
	if ec != 0 {
		return ec
	}

	doc := map[string]any{}
	if run, cells, err := st.LatestRunWithCells("bench"); err == nil {
		doc["host"] = map[string]any{
			"cpus":      run.CPUs,
			"go":        run.GoVersion,
			"tab6_jobs": run.Jobs,
		}
		doc["seed_baseline"] = seedBaseline
		current := map[string]any{}
		for _, c := range cells {
			if c.Type == store.TypeCell && c.Experiment == "bench.sh" {
				current[c.Series] = jsonNumber(c.Value)
			}
		}
		if len(current) > 0 {
			doc["current"] = current
		}
		doc["run"] = map[string]any{
			"id":      run.RunID,
			"git_rev": run.GitRev,
			"time":    timeLabel(run.Unix),
		}
	}
	if run, cells, err := st.LatestRunWithCells("fuzz"); err == nil {
		var archs []map[string]any
		failing := 0
		corpus := int64(0)
		for _, c := range cells {
			if c.Type != store.TypeVerdict || c.Series != "corpus" {
				continue
			}
			d := parseDetailInts(c.Detail)
			archs = append(archs, map[string]any{
				"arch":        c.Arch,
				"passed":      int64(c.Value),
				"fault_plans": d["fault_plans"],
				"kill_plans":  d["kill_plans"],
			})
			if c.Verdict == "fail" {
				failing++
			}
			if d["corpus"] > corpus {
				corpus = d["corpus"]
			}
		}
		if len(archs) > 0 {
			doc["fuzz"] = map[string]any{
				"seed":            run.Seed,
				"corpus_per_arch": corpus,
				"failing_archs":   failing,
				"archs":           archs,
			}
		}
	}
	if len(doc) == 0 {
		fmt.Fprintf(stderr, "export: no bench or fuzz runs with cells in %s\n", *storeF)
		return 1
	}

	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	b = append(b, '\n')
	if *out == "-" {
		_, err = stdout.Write(b)
	} else {
		err = os.WriteFile(*out, b, 0o644)
		if err == nil {
			fmt.Fprintf(stdout, "wrote %s\n", *out)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// jsonNumber renders integral floats as integers in the JSON export,
// matching the hand-written snapshot (allocs_per_op: 92, not 92.0).
func jsonNumber(v float64) any {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return int64(v)
	}
	return v
}

// parseDetailInts pulls k=v integer pairs out of a detail string like
// "corpus=200 fault_plans=57 kill_plans=11".
func parseDetailInts(detail string) map[string]int64 {
	out := map[string]int64{}
	for _, part := range strings.Fields(detail) {
		k, v, found := strings.Cut(part, "=")
		if !found {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(v, "%d", &n); err == nil {
			out[k] = n
		}
	}
	return out
}

func cmdBegin(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("begin", stderr)
	var (
		storeF = fs.String("store", "", "store directory (created if absent)")
		source = fs.String("source", "manual", "run source: bench, fuzz, chaos, manual, ...")
		seed   = fs.Int64("seed", 0, "seed to record on the run")
		jobs   = fs.Int64("jobs", 0, "worker count to record on the run")
		note   = fs.String("note", "", "free-form note")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storeF == "" {
		fmt.Fprintln(stderr, "missing -store <dir>")
		return 2
	}
	st, err := store.Open(*storeF, store.Options{})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer st.Close()
	rr := store.RunRecord(*source, *seed, *jobs, *note)
	if _, err := st.Append(rr); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, rr.RunID)
	return 0
}

func cmdAppend(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("append", stderr)
	var (
		storeF  = fs.String("store", "", "store directory")
		runID   = fs.String("run", "", "run id to append under (from camc-report begin)")
		exp     = fs.String("experiment", "", "experiment/metric family id")
		table   = fs.String("table", "", "table title")
		archF   = fs.String("arch", "", "architecture tag")
		kind    = fs.String("kind", "", "collective kind tag")
		series  = fs.String("series", "", "series/metric name")
		x       = fs.String("x", "", "x label")
		value   = fs.Float64("value", 0, "the measurement")
		unit    = fs.String("unit", "", "unit label (us, s, ns/op, ...)")
		verdict = fs.String("verdict", "", "pass/fail for verdict records")
		detail  = fs.String("detail", "", "free-form detail")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *storeF == "" || *runID == "" || *exp == "" || *series == "" {
		fmt.Fprintln(stderr, "append needs -store, -run, -experiment and -series")
		return 2
	}
	st, err := store.Open(*storeF, store.Options{})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer st.Close()
	if _, ok := st.RunByID(*runID); !ok {
		fmt.Fprintf(stderr, "unknown run id %q in %s (record one with camc-report begin)\n", *runID, *storeF)
		return 1
	}
	typ := store.TypeCell
	if *verdict != "" {
		typ = store.TypeVerdict
	}
	size, _ := store.ParseSizeLabel(*x)
	rec := store.Record{
		Type: typ, RunID: *runID,
		Experiment: *exp, Table: *table, Arch: *archF, Collective: *kind,
		Series: *series, X: *x, Size: size, Value: *value, Unit: *unit,
		Verdict: *verdict, Detail: *detail,
	}
	if _, err := st.Append(rec); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func orUnknown(s string) string {
	if s == "" {
		return "unknown"
	}
	return s
}

func timeLabel(unix int64) string {
	if unix == 0 {
		return "-"
	}
	return time.Unix(unix, 0).UTC().Format("2006-01-02T15:04:05Z")
}

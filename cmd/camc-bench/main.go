// Command camc-bench runs the paper-reproduction experiments: every
// figure and table of the evaluation section, printed as text tables.
//
// Usage:
//
//	camc-bench -list
//	camc-bench -run fig7
//	camc-bench -run fig7,fig8,tab6 -j 8
//	camc-bench -run fig7 -arch knl -quick
//	camc-bench -run x8 -faults heavy
//	camc-bench -run x8 -faults partial=0.3,eagain=0.5,seed=7
//	camc-bench -run x9 -deadline 500
//	camc-bench -run x9 -faults kill=0.4,killop=4,seed=11
//	camc-bench -run all
//	camc-bench -all
//	camc-bench -run x11 -quick -cpuprofile cpu.out -memprofile mem.out
//
// -cpuprofile and -memprofile write pprof profiles of the whole
// invocation (read them with go tool pprof): the CPU profile runs from
// flag parsing to exit, and the heap profile is taken at exit, after a
// garbage collection.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"camc/internal/arch"
	"camc/internal/bench"
	"camc/internal/check"
	"camc/internal/fault"
	"camc/internal/store"
	"camc/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, runs the selected
// experiments to stdout, and returns the process exit code (0 success,
// 2 usage error, 1 runtime failure).
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("camc-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list available experiments")
		runF     = fs.String("run", "", "experiment id(s) to run: one id (fig7), a comma-separated list (fig7,tab6), or all")
		all      = fs.Bool("all", false, "run every experiment")
		archF    = fs.String("arch", "", "restrict to one architecture: knl, broadwell, power8")
		quick    = fs.Bool("quick", false, "reduced sweeps (faster, same shapes)")
		jobs     = fs.Int("j", 0, "worker goroutines for experiment cells (0 = GOMAXPROCS; output is identical for any value)")
		format   = fs.String("format", "table", "output format: table, plot, csv")
		traceF   = fs.String("trace", "", "trace the algorithm-comparison measurements (figs 7-11) and write the last cell's Chrome JSON here")
		faults   = fs.String("faults", "", "add a custom fault scenario to x8 (and, with kill=..., to x9): a preset (none/light/moderate/heavy) and/or key=value overrides, e.g. heavy, partial=0.3,eagain=0.5,seed=7, or kill=0.4,killop=4,seed=11")
		deadline = fs.Float64("deadline", 0, "liveness detector deadline for x9 in simulated microseconds (0 = experiment default)")
		repro    = fs.String("repro", "", "replay one camc-fuzz reproducer spec line and report its verdict instead of running experiments")
		storeF   = fs.String("store", "", "append every experiment cell to the results store at this directory (created if absent; query with camc-report)")
		storeRun = fs.String("store-run", "", "append cells under this existing run id instead of recording a fresh run (needs -store; ids come from camc-report begin)")
		cpuProf  = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf  = fs.String("memprofile", "", "write a pprof heap profile, taken at exit, to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "negative -j %d (worker goroutines; 0 = GOMAXPROCS)\n", *jobs)
		return 2
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "-cpuprofile: %v\n", err)
				code = 1
			}
		}()
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fmt.Fprintf(stderr, "-memprofile: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC()
			err := pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintf(stderr, "-memprofile: %v\n", err)
				code = 1
			}
		}()
	}

	if *repro != "" {
		sp, err := check.ParseSpec(*repro)
		if err != nil {
			fmt.Fprintf(stderr, "%v\nusage: -repro \"arch=knl kind=scatter algo=throttled:4 size=4096 procs=8 root=3 seed=17 [skew=..] [faults=..] [deadline=..]\"\n", err)
			return 2
		}
		res, err := check.RunOne(sp)
		if err != nil {
			fmt.Fprintf(stdout, "FAIL %s\n  %v\n", sp, err)
			return 1
		}
		fmt.Fprintf(stdout, "PASS %s\n  latency %.2f us, %d trace events; differential and invariant checks green\n",
			res.Spec, res.Latency, res.Rec.Len())
		return 0
	}

	if *archF != "" {
		if _, err := arch.ByName(*archF); err != nil {
			fmt.Fprintf(stderr, "%v (use -arch knl, broadwell, or power8)\n", err)
			return 2
		}
	}
	if *deadline < 0 {
		fmt.Fprintf(stderr, "negative -deadline %v (simulated microseconds; 0 keeps the x9 default)\n", *deadline)
		return 2
	}
	opts := bench.Options{Arch: *archF, Quick: *quick, Jobs: *jobs, Deadline: *deadline}
	if *faults != "" {
		cfg, err := fault.Parse(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "%v\nusage: -faults <preset>[,key=value...], e.g. -faults heavy or -faults partial=0.3,seed=7\n", err)
			return 2
		}
		opts.Fault = &cfg
		if cfg.KillProb > 0 && opts.Deadline == 0 {
			// A kill plan needs the liveness detector; without an explicit
			// -deadline, resolve to the documented x9 default rather than
			// leaving the option zero.
			opts.Deadline = bench.DefaultDeadline
		}
	}
	var f bench.Format
	switch *format {
	case "table":
		f = bench.FormatTable
	case "plot":
		f = bench.FormatPlot
	case "csv":
		f = bench.FormatCSV
	default:
		fmt.Fprintf(stderr, "unknown format %q (use -format table, plot, or csv)\n", *format)
		return 2
	}
	var exps []*bench.Experiment
	switch {
	case *list:
		for _, e := range bench.Registry() {
			fmt.Fprintf(stdout, "%-7s %s\n", e.ID, e.Title)
		}
		return 0
	case *all || *runF == "all":
		exps = bench.Registry()
	case *runF != "":
		seen := map[string]bool{}
		for _, id := range strings.Split(*runF, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				continue
			}
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(stderr, "unknown experiment %q; use -list\n", id)
				return 2
			}
			if seen[id] {
				fmt.Fprintf(stderr, "duplicate experiment %q in -run %s (each id runs once; list every id once)\n", id, *runF)
				return 2
			}
			seen[id] = true
			exps = append(exps, e)
		}
	}
	if len(exps) == 0 {
		fs.Usage()
		return 2
	}
	if *storeRun != "" && *storeF == "" {
		fmt.Fprintln(stderr, "-store-run needs -store")
		return 2
	}
	var st *store.Store
	runID := *storeRun
	if *storeF != "" {
		var err error
		st, err = store.Open(*storeF, store.Options{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer st.Close()
		if runID == "" {
			rr := store.RunRecord("bench", 0, int64(*jobs), "camc-bench -run "+*runF)
			if _, err := st.Append(rr); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			runID = rr.RunID
		} else if _, ok := st.RunByID(runID); !ok {
			fmt.Fprintf(stderr, "store: unknown run id %q in %s (record one with camc-report begin)\n", runID, *storeF)
			return 2
		}
	}
	if *traceF != "" {
		traceable := false
		for _, e := range exps {
			if e.Traceable {
				traceable = true
				break
			}
		}
		if !traceable {
			fmt.Fprintf(stderr, "-trace needs a traceable experiment in the run set (figs 7-11); -run %s selects none\n", *runF)
			return 2
		}
	}
	var lastRec *trace.Recorder
	var lastLabel string
	if *traceF != "" {
		// With -run all (or -all) every traceable figure runs and the last
		// comparison cell wins; with an explicit list, the check above
		// guarantees at least one traced measurement feeds the sink.
		opts.TraceSink = func(archName, algo string, size int64, rec *trace.Recorder) {
			lastRec, lastLabel = rec, fmt.Sprintf("%s/%s/%d", archName, algo, size)
		}
		defer func() {
			if lastRec == nil {
				fmt.Fprintln(stderr, "trace: no traced measurement ran (only figs 7-11 are traceable)")
				return
			}
			f, err := os.Create(*traceF)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			if err := trace.WriteChrome(f, lastRec); err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			fmt.Fprintf(stdout, "trace: wrote %s (%s; load in chrome://tracing or ui.perfetto.dev)\n", *traceF, lastLabel)
		}()
	}
	cells, appendErr := 0, error(nil)
	for _, e := range exps {
		var sink func(bench.Table)
		if st != nil {
			expID := e.ID
			sink = func(t bench.Table) {
				for _, r := range bench.CellRecords(runID, expID, t) {
					if _, err := st.Append(r); err != nil && appendErr == nil {
						appendErr = err
					}
					cells++
				}
			}
		}
		if err := e.RunFormatSink(stdout, opts, f, sink); err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.ID, err)
			return 1
		}
	}
	if st != nil {
		if appendErr == nil {
			appendErr = st.Sync()
		}
		if appendErr != nil {
			fmt.Fprintln(stderr, appendErr)
			return 1
		}
		fmt.Fprintf(stderr, "store: appended %d cells under run %s to %s\n", cells, runID, *storeF)
	}
	return 0
}

// Command camc-trace runs one collective invocation with structured
// tracing enabled and exports the timeline: Chrome trace-event JSON
// (loadable in chrome://tracing or ui.perfetto.dev), the extracted
// critical path, the mm-lock contention timeline and the per-rank
// utilisation decomposition.
//
// Usage:
//
//	camc-trace -run fig7 -arch knl -size 1M -algo throttled:4 -out trace.json -critical-path
//	camc-trace -run bcast -arch broadwell -size 256K -algo knomial-read:5 -summary
//	camc-trace -run fig9 -size 64K -algo pairwise-cma-coll -locks -util
//	camc-trace -run scatter -faults heavy -summary
//	camc-trace -run bcast -faults kill=0.35,seed=11 -deadline 500
//	camc-trace -repro "arch=knl kind=bcast algo=direct-read size=4096 procs=6 root=2 seed=39" -critical-path
//
// -run accepts either the figure id of the algorithm-comparison
// experiments (fig7 Scatter, fig8 Gather, fig9 Alltoall, fig10
// Allgather, fig11 Bcast) or the collective name itself (including
// reduce, which has no paper figure). -repro replays a camc-fuzz
// reproducer spec line with the full differential and invariant
// checking attached and exports its trace. -algo accepts
// the specs documented on core.LookupAlgorithm ("tuned" by default).
// -faults attaches a deterministic fault-injection plan (see
// internal/fault); injected faults and degraded-mode reactions appear
// in the timeline under the "fault" category and are tallied after the
// run. A plan with the kill class (or an explicit -deadline) traces the
// full recovery cycle instead — detection, agreement, shrink and the
// verified re-run — with the liveness events under the "liveness"
// category.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"camc/internal/arch"
	"camc/internal/bench"
	"camc/internal/check"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/liveness"
	"camc/internal/measure"
	"camc/internal/trace"
)

// runKind maps a -run argument to the collective it measures.
func runKind(run string) (core.Kind, error) {
	switch run {
	case "fig7", "scatter":
		return core.KindScatter, nil
	case "fig8", "gather":
		return core.KindGather, nil
	case "fig9", "alltoall":
		return core.KindAlltoall, nil
	case "fig10", "allgather":
		return core.KindAllgather, nil
	case "fig11", "bcast":
		return core.KindBcast, nil
	case "reduce":
		return core.KindReduce, nil
	}
	return "", fmt.Errorf("unknown run %q (want fig7..fig11 or scatter/gather/alltoall/allgather/bcast/reduce)", run)
}

// parseSize parses a byte size with an optional K/M suffix (1024-based).
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}

// faultTally prints the injected-fault and liveness instants recorded
// in the trace, grouped by event name — the CLI's view of what the plan
// did and how the stack reacted.
func faultTally(w io.Writer, rec *trace.Recorder) {
	counts := map[string]int{}
	for _, e := range rec.Events() {
		if e.Kind == trace.KindInstant && (e.Cat == trace.CatFault || e.Cat == trace.CatLiveness) {
			counts[e.Name]++
		}
	}
	if len(counts) == 0 {
		fmt.Fprintln(w, "faults: none fired (plan active but no decision hit)")
		return
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprint(w, "faults:")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%d", n, counts[n])
	}
	fmt.Fprintln(w)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, traces the requested
// run to stdout, and returns the process exit code (0 success, 2 usage
// error, 1 runtime failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("camc-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runF     = fs.String("run", "fig7", "figure id (fig7..fig11) or collective name")
		archF    = fs.String("arch", "knl", "architecture: knl, broadwell, power8")
		sizeF    = fs.String("size", "1M", "per-rank message size (K/M suffixes)")
		algoF    = fs.String("algo", "tuned", "algorithm spec (see core.LookupAlgorithm)")
		procs    = fs.Int("procs", 0, "ranks (0 = architecture default, full subscription)")
		iters    = fs.Int("iters", 1, "timed invocations")
		out      = fs.String("out", "", "write Chrome trace-event JSON to this file")
		critPath = fs.Bool("critical-path", false, "print the critical path per invocation")
		locks    = fs.Bool("locks", false, "print the mm-lock contention timeline")
		util     = fs.Bool("util", false, "print the per-rank utilisation decomposition")
		summary  = fs.Bool("summary", false, "print the full text summary")
		benchF   = fs.Bool("bench", false, "run the whole bench experiment traced (slow); -out gets the last cell")
		faults   = fs.String("faults", "", "attach a fault-injection plan: a preset (none/light/moderate/heavy) and/or key=value overrides, e.g. heavy, partial=0.3,seed=7, or kill=0.35,seed=11")
		deadline = fs.Float64("deadline", 0, "liveness detector deadline in simulated microseconds; > 0 (or a kill plan) traces the recovery cycle")
		repro    = fs.String("repro", "", "replay one camc-fuzz reproducer spec line with full checking, report the verdict, and export its trace via -out/-summary/-critical-path/-locks/-util")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *repro != "" {
		sp, err := check.ParseSpec(*repro)
		if err != nil {
			fmt.Fprintf(stderr, "%v\nusage: -repro \"arch=knl kind=scatter algo=throttled:4 size=4096 procs=8 root=3 seed=17 [skew=..] [faults=..] [deadline=..]\"\n", err)
			return 2
		}
		res, rerr := check.RunOne(sp)
		if res == nil || res.Rec == nil {
			// The spec never produced a run (bad profile, harness error
			// before any trace existed) — nothing to export.
			fmt.Fprintf(stderr, "%v\n", rerr)
			return 1
		}
		if rerr != nil {
			// Export the trace anyway: a failing reproducer's timeline is
			// exactly what the exporters exist to dissect.
			fmt.Fprintf(stdout, "FAIL %s\n  %v\n", sp, rerr)
		} else {
			fmt.Fprintf(stdout, "PASS %s\n  latency %.2f us, %d trace events; differential and invariant checks green\n",
				res.Spec, res.Latency, res.Rec.Len())
		}
		if r := res.Recovery; r != nil && r.Err != nil {
			fmt.Fprintf(stdout, "recovery: dead ranks %v; detect %.2f us, shrink %.2f us, re-run (%s on %d survivors) %.2f us\n",
				r.Failed, r.DetectLatency, r.ShrinkLatency, r.Algorithm, r.Survivors, r.RerunLatency)
		}
		if code := export(stdout, stderr, res.Rec, *out, *summary, *critPath, *locks, *util); code != 0 {
			return code
		}
		if rerr != nil {
			return 1
		}
		return 0
	}

	kind, err := runKind(*runF)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	prof, err := arch.ByName(*archF)
	if err != nil {
		fmt.Fprintf(stderr, "%v (use -arch knl, broadwell, or power8)\n", err)
		return 2
	}
	if *procs < 0 || *procs > prof.HWThreads() {
		fmt.Fprintf(stderr, "-procs %d outside 0..%d, the %s hardware threads (0 = full subscription)\n", *procs, prof.HWThreads(), prof.Name)
		return 2
	}
	if *iters < 1 {
		fmt.Fprintf(stderr, "-iters %d: need at least one timed invocation\n", *iters)
		return 2
	}
	size, err := parseSize(*sizeF)
	if err != nil {
		fmt.Fprintf(stderr, "%v\n", err)
		return 2
	}
	algo, err := core.LookupAlgorithm(kind, *algoF)
	if err != nil {
		fmt.Fprintf(stderr, "%v (see core.LookupAlgorithm for specs)\n", err)
		return 2
	}
	var faultCfg *fault.Config
	if *faults != "" {
		cfg, err := fault.Parse(*faults)
		if err != nil {
			fmt.Fprintf(stderr, "%v\nusage: -faults <preset>[,key=value...], e.g. -faults heavy or -faults partial=0.3,seed=7\n", err)
			return 2
		}
		faultCfg = &cfg
	}

	if err := liveness.CheckDeadline(*deadline); err != nil {
		fmt.Fprintf(stderr, "-deadline: %v (simulated microseconds)\n", err)
		return 2
	}
	recovery := *deadline > 0 || (faultCfg != nil && faultCfg.KillProb > 0)

	var lat float64
	var rec *trace.Recorder
	if *benchF {
		// Trace every cell of the figure's sweep; keep the one matching
		// the requested size and algorithm (or the last cell seen).
		e, ok := bench.ByID(*runF)
		if !ok {
			fmt.Fprintf(stderr, "-bench requires a figure id, got %q\n", *runF)
			return 2
		}
		o := bench.Options{Arch: prof.Name, Fault: faultCfg, TraceSink: func(archName, algoName string, sz int64, r *trace.Recorder) {
			if rec == nil || sz == size {
				rec = r
			}
		}}
		if err := e.Run(stdout, o); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
	} else if recovery {
		// Trace the whole recovery cycle: detection, agreement, shrink,
		// re-plan, verified re-run. Iters does not apply here.
		lcfg := liveness.Defaults()
		if *deadline > 0 {
			lcfg.Deadline = *deadline
		}
		res, rrec, err := measure.CollectiveRecoveredTraced(prof, kind, *algoF, size,
			measure.Options{Procs: *procs, Fault: faultCfg, Liveness: &lcfg})
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		rec = rrec
		fmt.Fprintf(stdout, "%s %s on %s, %s per rank: first attempt %.2f us (%d events recorded)\n",
			kind, algo.Name, prof.Name, *sizeF, res.FirstLatency, rec.Len())
		if res.Err == nil {
			fmt.Fprintln(stdout, "recovery: no rank died; payload verified on the full communicator")
		} else {
			fmt.Fprintf(stdout, "recovery: dead ranks %v; detect %.2f us, shrink %.2f us, re-run (%s on %d survivors) %.2f us; payload verified\n",
				res.Failed, res.DetectLatency, res.ShrinkLatency, res.Algorithm, res.Survivors, res.RerunLatency)
		}
		if faultCfg != nil {
			faultTally(stdout, rec)
		}
	} else {
		lat, rec = measure.CollectiveTraced(prof, kind, algo.Run, size, measure.Options{Procs: *procs, Iters: *iters, Fault: faultCfg})
		fmt.Fprintf(stdout, "%s %s on %s, %s per rank: latency %.2f us (%d events recorded)\n",
			kind, algo.Name, prof.Name, *sizeF, lat, rec.Len())
		if faultCfg != nil {
			faultTally(stdout, rec)
		}
	}

	if code := export(stdout, stderr, rec, *out, *summary, *critPath, *locks, *util); code != 0 {
		return code
	}
	if *out == "" && !*summary && !*critPath && !*locks && !*util {
		trace.WriteSummary(stdout, rec)
	}
	return 0
}

// export runs the selected trace exporters over rec: Chrome JSON to the
// out path, then the text views. Returns 0, or 1 if the JSON write
// failed. Callers decide what (if anything) to print when no exporter
// was selected.
func export(stdout, stderr io.Writer, rec *trace.Recorder, out string, summary, critPath, locks, util bool) int {
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		if err := trace.WriteChrome(f, rec); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "%v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (load in chrome://tracing or ui.perfetto.dev)\n", out)
	}
	if summary {
		trace.WriteSummary(stdout, rec)
	}
	if critPath {
		for _, cp := range trace.CriticalPaths(rec) {
			trace.WriteCriticalPath(stdout, &cp)
		}
	}
	if locks && !summary {
		for _, st := range trace.LockTimelines(rec) {
			fmt.Fprintf(stdout, "lane %d: held %.2fus, max concurrency %d, max queue %d\n",
				st.Lane, st.HeldTime, st.MaxConc, st.MaxQueue)
		}
	}
	if util && !summary {
		for _, u := range trace.Utilizations(rec) {
			fmt.Fprintf(stdout, "rank %3d: window %.2fus  syscall %.2f  lock %.2f  pin %.2f  copy %.2f  shmcopy %.2f  wait %.2f  other %.2f\n",
				u.Lane, u.Window, u.Syscall, u.Lock, u.Pin, u.Copy, u.ShmCopy, u.Wait, u.Other)
		}
	}
	return 0
}

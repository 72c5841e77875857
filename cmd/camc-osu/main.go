// Command camc-osu prints OSU-microbenchmark-style latency tables for
// any collective, library, or named algorithm on the simulated
// architectures — the day-to-day exploration tool next to the
// figure-oriented camc-bench.
//
// Usage:
//
//	camc-osu -coll bcast                          # proposed design, KNL
//	camc-osu -coll scatter -lib mvapich2 -arch power8
//	camc-osu -coll gather -algo throttled:4 -procs 32
//	camc-osu -coll allgather -mech xpmem
//	camc-osu -coll reduce -min 4K -max 1M
//	camc-osu -list-algos -coll bcast
//
// -algo takes a spec of the grammar camc-trace and camc-fuzz -repro
// share (core.LookupAlgorithm): "name" or "name:k", e.g. throttled:4 or
// knomial-read:9. Bad flags (an unknown collective or algorithm spec, an
// empty size ladder, -iters < 1, a negative -procs, an out-of-range
// -root) exit 2 with a one-line error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/libs"
	"camc/internal/measure"
	"camc/internal/mpi"
	"camc/internal/store"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "camc-osu:", err)
		os.Exit(2)
	}
}

// run is the testable entry point: it parses args, validates every
// flag before simulating anything, and prints the latency table to
// stdout. Every error it returns is a usage error.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("camc-osu", flag.ContinueOnError)
	var (
		collF  = fs.String("coll", "", "collective: scatter, gather, bcast, allgather, alltoall, reduce")
		libF   = fs.String("lib", "proposed", "library: proposed, mvapich2, intelmpi, openmpi")
		algoF  = fs.String("algo", "", "algorithm spec, name or name:k (overrides -lib; see -list-algos)")
		archF  = fs.String("arch", "knl", "architecture: knl, broadwell, power8")
		procs  = fs.Int("procs", 0, "process count (default: full subscription)")
		minF   = fs.String("min", "1K", "smallest message size in bytes, with optional K/M suffix")
		maxF   = fs.String("max", "4M", "largest message size in bytes, with optional K/M suffix")
		mechF  = fs.String("mech", "cma", "kernel-assist mechanism: cma, knem, limic, xpmem")
		listA  = fs.Bool("list-algos", false, "list the algorithm specs for -coll")
		rootF  = fs.Int("root", 0, "root rank for rooted collectives")
		itersF = fs.Int("iters", 1, "timed invocations per size")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (camc-osu takes flags only)", fs.Arg(0))
	}
	a, err := arch.ByName(*archF)
	if err != nil {
		return err
	}
	kind := core.Kind(*collF)
	if !slices.Contains(core.SpecKinds(), kind) {
		return fmt.Errorf("unknown -coll %q (want one of %v)", *collF, core.SpecKinds())
	}
	if *listA {
		for _, sp := range core.Specs(kind) {
			line := sp.Name
			if sp.Default > 0 {
				line += fmt.Sprintf("[:k]  (k defaults to %d)", sp.Default)
			}
			if len(sp.Aliases) > 0 {
				line += fmt.Sprintf("  alias %s", strings.Join(sp.Aliases, ", "))
			}
			fmt.Fprintln(stdout, line)
		}
		return nil
	}

	var algo func(*mpi.Rank, core.Args)
	var label string
	switch {
	case *algoF != "":
		al, err := core.LookupAlgorithm(kind, *algoF)
		if err != nil {
			return fmt.Errorf("-algo: %v (use -list-algos)", err)
		}
		algo, label = al.Run, al.Name
	case kind == core.KindReduce:
		algo, label = core.Tuned(core.KindReduce), "tuned-reduce"
	default:
		l, ok := libs.ByName(*libF)
		if !ok {
			return fmt.Errorf("unknown library %q", *libF)
		}
		algo, label = l.Collective(kind), l.Name
	}

	var mech kernel.Mechanism
	switch *mechF {
	case "cma":
		mech = kernel.MechCMA
	case "knem":
		mech = kernel.MechKNEM
	case "limic":
		mech = kernel.MechLiMIC
	case "xpmem":
		mech = kernel.MechXPMEM
	default:
		return fmt.Errorf("unknown mechanism %q", *mechF)
	}

	if *procs < 0 {
		return fmt.Errorf("negative -procs %d (0 = full subscription)", *procs)
	}
	np := *procs
	if np == 0 {
		np = a.DefaultProcs
	}
	if *rootF < 0 || *rootF >= np {
		return fmt.Errorf("-root %d out of range for %d processes", *rootF, np)
	}
	if *itersF < 1 {
		return fmt.Errorf("-iters %d: need at least one timed invocation", *itersF)
	}
	lo, okLo := store.ParseSizeLabel(*minF)
	hi, okHi := store.ParseSizeLabel(*maxF)
	sizes := measure.Sizes(lo, hi)
	if !okLo || !okHi || len(sizes) == 0 {
		return fmt.Errorf("empty size ladder -min %s -max %s (want 0 < min <= max)", *minF, *maxF)
	}

	fmt.Fprintf(stdout, "# CAMC %s latency test\n", kind)
	fmt.Fprintf(stdout, "# %s, %d processes, %s via %s\n", a.Display, np, label, mech)
	fmt.Fprintf(stdout, "%-12s %16s\n", "# Size", "Latency (us)")
	for _, size := range sizes {
		lat := measure.Collective(a, kind, algo, size, measure.Options{
			Procs: np, Root: *rootF, Iters: *itersF, Mechanism: mech,
		})
		fmt.Fprintf(stdout, "%-12d %16.2f\n", size, lat)
	}
	return nil
}

// Command camc-tune runs the collective autotuner: it probes every
// candidate algorithm per collective at a ladder of message sizes and
// prints the winning dispatch table for an architecture — the measured
// equivalent of the paper's MVAPICH2 tuning-framework integration.
//
// Usage:
//
//	camc-tune                          # tune all three architectures
//	camc-tune -arch knl
//	camc-tune -arch power8 -procs 80
//	camc-tune -arch knl -ambient 32    # tune for a busy machine
//	camc-tune -arch knl -store results/bench.store
//	camc-tune -serve -addr 127.0.0.1:7423
//
// With -serve it becomes the always-on tuning service: an HTTP/JSON
// oracle (GET /plan, /stats, /healthz) answering concurrent plan
// requests from a tuned-table cache keyed by (arch, ranks, kind,
// ambient bucket).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/store"
	"camc/internal/tuner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, tunes (or serves),
// and returns the process exit code (0 success, 2 usage error, 1
// runtime failure).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("camc-tune", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		archF   = fs.String("arch", "", "architecture: knl, broadwell, power8 (default: all)")
		procs   = fs.Int("procs", 0, "override the process count (default: full subscription)")
		jobs    = fs.Int("j", 0, "worker goroutines for probe measurements (0 = GOMAXPROCS; the table is identical for any value)")
		ambient = fs.Int("ambient", 0, "tune under this static co-tenant lock pressure (phantom mm-lock holders in every gamma(c) sample)")
		sizesF  = fs.String("sizes", "", "comma-separated probe-size ladder with optional K/M suffixes, e.g. 4K,64K,1M (default: 1K..4M powers of four)")
		storeF  = fs.String("store", "", "append the tuned-table cells to the results store at this directory (created if absent; query with camc-report)")
		serve   = fs.Bool("serve", false, "run the always-on tuning service (HTTP/JSON plan cache) instead of a one-shot tune")
		addr    = fs.String("addr", "127.0.0.1:7423", "listen address for -serve")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "unexpected argument %q (camc-tune takes flags only)\n", fs.Arg(0))
		return 2
	}
	if *jobs < 0 {
		fmt.Fprintf(stderr, "negative -j %d (worker goroutines; 0 = GOMAXPROCS)\n", *jobs)
		return 2
	}
	if *ambient < 0 {
		fmt.Fprintf(stderr, "negative -ambient %d (lock holders; 0 = idle machine)\n", *ambient)
		return 2
	}
	if *serve && *storeF != "" {
		fmt.Fprintln(stderr, "-serve and -store are exclusive: the service tunes on demand per ambient bucket; record one-shot tables with -store, serve plans with -serve")
		return 2
	}
	profiles := arch.All()
	if *archF != "" {
		p, err := arch.ByName(*archF)
		if err != nil {
			fmt.Fprintf(stderr, "%v (use -arch knl, broadwell, or power8)\n", err)
			return 2
		}
		profiles = []*arch.Profile{p}
	}
	for _, a := range profiles {
		if *procs < 0 || *procs > a.HWThreads() {
			fmt.Fprintf(stderr, "-procs %d outside 0..%d, the %s hardware threads (0 = full subscription)\n", *procs, a.HWThreads(), a.Name)
			return 2
		}
	}
	sizes, err := parseSizes(*sizesF)
	if err != nil {
		fmt.Fprintf(stderr, "%v\nusage: -sizes 4K,64K,1M (bytes with optional K/M suffixes, ascending)\n", err)
		return 2
	}

	if *serve {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return serveMain(ctx, *addr, tuner.ServiceConfig{Jobs: *jobs, ProbeSizes: sizes}, stdout, stderr)
	}

	var st *store.Store
	var runID string
	if *storeF != "" {
		var err error
		st, err = store.Open(*storeF, store.Options{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer st.Close()
		rr := store.RunRecord("tune", 0, int64(*jobs), "camc-tune "+strings.Join(args, " "))
		if _, err := st.Append(rr); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		runID = rr.RunID
	}

	cells := 0
	for _, a := range profiles {
		tab := tuner.Autotune(a, tuner.Config{Procs: *procs, Jobs: *jobs, Ambient: *ambient, ProbeSizes: sizes})
		tab.Fprint(stdout)
		fmt.Fprintln(stdout)
		if st != nil {
			for _, r := range cellRecords(runID, tab, *ambient) {
				if _, err := st.Append(r); err != nil {
					fmt.Fprintln(stderr, err)
					return 1
				}
				cells++
			}
		}
	}
	if st != nil {
		if err := st.Sync(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "store: appended %d cells under run %s to %s\n", cells, runID, *storeF)
	}
	return 0
}

// cellRecords flattens one tuned table into store cells: one record per
// dispatch bucket, the measurement taken at the bucket's probe size.
func cellRecords(runID string, tab *tuner.Table, ambient int) []store.Record {
	kinds := make([]string, 0, len(tab.Entries))
	for k := range tab.Entries {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	title := fmt.Sprintf("tuning table for %s (%d ranks), ambient=%d", tab.Arch, tab.Procs, ambient)
	var out []store.Record
	for _, k := range kinds {
		for _, e := range tab.Entries[core.Kind(k)] {
			out = append(out, store.Record{
				Type:       store.TypeCell,
				RunID:      runID,
				Experiment: "tune",
				Table:      title,
				Arch:       tab.Arch,
				Collective: k,
				Series:     e.Name,
				X:          sizeLabel(e.Probe),
				Size:       e.Probe,
				Value:      e.Latency,
				Unit:       "us",
			})
		}
	}
	return out
}

// parseSizes parses the -sizes ladder ("" = tuner default).
func parseSizes(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	var out []int64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		mult := int64(1)
		switch {
		case strings.HasSuffix(tok, "K"), strings.HasSuffix(tok, "k"):
			mult, tok = 1<<10, tok[:len(tok)-1]
		case strings.HasSuffix(tok, "M"), strings.HasSuffix(tok, "m"):
			mult, tok = 1<<20, tok[:len(tok)-1]
		}
		v, err := strconv.ParseInt(tok, 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad -sizes entry %q", tok)
		}
		v *= mult
		if n := len(out); n > 0 && v <= out[n-1] {
			return nil, fmt.Errorf("-sizes must be strictly ascending (%s)", s)
		}
		out = append(out, v)
	}
	return out, nil
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

// shutdownGrace bounds how long a stopping service waits for in-flight
// requests to finish.
const shutdownGrace = 30 * time.Second

// newServer wraps the service handler in an http.Server whose every
// phase is bounded, so a slow or stalled client cannot hold a
// connection open forever. The write timeout covers a cold /plan, which
// runs a whole Autotune before it answers.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// serveMain runs the tuning service until ctx is cancelled (SIGINT or
// SIGTERM from run), then stops accepting and drains in-flight requests
// for up to shutdownGrace. The listener is bound before the "listening"
// line prints, so a caller (the CI smoke job) can wait for that line and
// then query.
func serveMain(ctx context.Context, addr string, cfg tuner.ServiceConfig, stdout, stderr io.Writer) int {
	svc := tuner.NewService(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	srv := newServer(svc.Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Fprintf(stdout, "tuning service listening on http://%s (GET /plan?arch=..&kind=..&size=..[&procs=..][&ambient=..], /stats, /healthz)\n", ln.Addr())
	select {
	case err := <-served:
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "tuning service: shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

// Command perfbench is the host-time benchmark of the camc simulator: a
// single-process, closed-loop benchmark (one caller goroutine, ops back to
// back) over two workloads, node and fabric, that checks every op's
// simulated output and reports end-to-end metrics, or, with -trace 1,
// per-layer metrics from a separate traced run.
//
//	bash perfbench/run.sh --workload node --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"camc/internal/arch"
	"camc/internal/check"
	"camc/internal/cluster"
	"camc/internal/core"
)

// gomaxprocs is fixed for every run: rank goroutines hand a token back
// and forth, and on one P those hand-offs never cross threads (the
// loop over a large communicator runs ~20% faster than at 2 on a 2-vCPU
// host). An op's GC work also lands on the CPU the op is timed on.
const gomaxprocs = 1

// setupRounds is how many times a run builds its set-up; setup_s is the
// median round.
const setupRounds = 7

// traceOps is the traced run's fixed op count.
const traceOps = 60

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	spans    string
	// smoke > 0 caps the run at that many ops with one set-up round.
	smoke int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed that orders the ops")
	fs.Float64Var(&cfg.seconds, "seconds", 36, "measured time per run on the reference host")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "checkout root (holds results/baseline.store)")
	fs.StringVar(&cfg.spans, "spans", "", "traced run's span file (default .bench_build/perfbench/spans-<workload>-seed<n>.json)")
	fs.IntVar(&cfg.smoke, "smoke", 0, "run only this many ops (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1 and -seconds positive")
		return 2
	}
	cfg.trace = traceFlag == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.root, ".bench_build", "perfbench", fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := execute(cfg, start, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// wrongOutput marks an op whose simulated output disagreed with its
// oracle, as opposed to one that crashed or could not run.
type wrongOutput struct{ error }

// failure is one failing cell, with how often it failed.
type failure struct {
	label string
	count int
	err   error
}

// tally counts failed ops by cell, in order of first failure.
type tally struct {
	fails map[string]*failure
	order []string
	wrong int
}

func (t *tally) add(label string, err error) {
	var w wrongOutput
	if errors.As(err, &w) {
		t.wrong++
	}
	f := t.fails[label]
	if f == nil {
		f = &failure{label: label, err: err}
		t.fails[label] = f
		t.order = append(t.order, label)
	}
	f.count++
}

func (t *tally) failed() int {
	n := 0
	for _, f := range t.fails {
		n += f.count
	}
	return n
}

// bench runs ops of one workload and keeps the oracle state.
type bench struct {
	w     *workload
	refs  *refs
	first map[string]out
	// tally counts the failures of measured ops.
	tally
	// warmFails lists the failures of set-up warm-up ops. They are not
	// counted: the measured ops meet the same cells again.
	warmFails tally
	warming   bool
	// setups and scans are each set-up round's time in seconds and its
	// store scan in ms.
	setups, scans []float64
}

func newBench() *bench {
	return &bench{first: map[string]out{},
		tally: tally{fails: map[string]*failure{}}, warmFails: tally{fails: map[string]*failure{}}}
}

// guarded runs one op, turning a panic into an error.
func guarded(op operation, tr *tracer) (o out, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return op.exec(tr)
}

// do runs cell c once, checks its output and, when traced, runs its
// per-layer probes. It returns the op's host time.
func (b *bench) do(c *cell, tr *tracer) (time.Duration, out, bool) {
	var o out
	var err error
	d := tr.timed("op", func() { o, err = guarded(c.op, tr) })
	if err == nil {
		err = b.verify(c, o)
	}
	if err != nil {
		b.fail(c.label, err)
		return d, nil, false
	}
	if p, ok := c.op.(prober); ok && tr != nil {
		tr.opDur = d
		func() {
			defer func() {
				if p := recover(); p != nil {
					tr.mismatch("%s: probe panic: %v", c.label, p)
				}
			}()
			p.probe(tr, o)
		}()
	}
	return d, o, true
}

// verify compares o with the cell's store reference, or with the
// cell's first result in this process.
func (b *bench) verify(c *cell, o out) error {
	want, what := c.want, "baseline store"
	if want == nil {
		f, ok := b.first[c.label]
		if !ok {
			b.first[c.label] = o
			return nil
		}
		want, what = f, "its first result"
	}
	if !sameBits(o, want) {
		return wrongOutput{fmt.Errorf("output %v differs from %s %v", o, what, want)}
	}
	return nil
}

func sameBits(a, b out) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (b *bench) fail(label string, err error) {
	if b.warming {
		b.warmFails.add(label, err)
		return
	}
	b.tally.add(label, err)
}

// setup is one timed set-up round: read the references from the
// baseline store, build the catalogue, warm it. Results of the warm-up
// ops become the first results later recurrences must reproduce.
func (b *bench) setup(cfg config) error {
	start := time.Now()
	var r *refs
	var err error
	scan := timeIt(func() { r, err = loadRefs(cfg.root) })
	if err != nil {
		return err
	}
	w, err := buildWorkload(cfg.workload, r)
	if err != nil {
		return err
	}
	b.w, b.refs = w, r
	b.warming = true
	for _, ci := range w.warm {
		b.do(&w.cells[ci], nil)
	}
	b.warming = false
	b.setups = append(b.setups, time.Since(start).Seconds())
	b.scans = append(b.scans, ms(scan))
	return nil
}

func timeIt(fn func()) time.Duration {
	t := time.Now()
	fn()
	return time.Since(t)
}

func execute(cfg config, start time.Time, stdout io.Writer) (*result, error) {
	rounds := setupRounds
	if cfg.smoke > 0 {
		rounds = 1
	}
	b := newBench()
	if err := b.setup(cfg); err != nil {
		return nil, err
	}
	firstOp := time.Since(start)

	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(stdout, "fingerprint: %s\n", fingerprint(cfg.root))
	fmt.Fprintf(stdout, "catalogue: %d cells, %d warm-up ops per set-up round; process start to first timed op %.3fs\n",
		len(b.w.cells), len(b.w.warm), firstOp.Seconds())
	if cfg.trace {
		for len(b.setups) < rounds {
			if err := b.setup(cfg); err != nil {
				return nil, err
			}
		}
		return tracedRun(cfg, b, stdout)
	}
	return timedRun(cfg, b, rounds, stdout)
}

// timedRun is the untraced end-to-end run: a fixed number of whole
// passes over the catalogue, about -seconds long on the reference host.
// The set-up rounds after the first are spread over the run, round k
// before pass ceil(k·passes/rounds), so that setup_s samples the same
// stretch of host time as the ops. Their time counts in no op metric.
func timedRun(cfg config, b *bench, rounds int, stdout io.Writer) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var durs []float64
	g0 := runtime.NumGoroutine()
	passes := int(math.Round(cfg.seconds / b.w.passSeconds))
	if passes < 1 || cfg.smoke > 0 {
		passes = 1
	}
	var passSecs []float64
	var wall time.Duration
	var mallocs uint64
	var m runtime.MemStats
	for p := 0; p <= passes; p++ {
		for k := len(b.setups); k < rounds && k*passes <= p*rounds; k = len(b.setups) {
			if err := b.setup(cfg); err != nil {
				return nil, err
			}
		}
		if p == passes {
			break
		}
		runtime.ReadMemStats(&m)
		m0 := m.Mallocs
		ps := time.Now()
		// Every pass is a seeded permutation of the whole catalogue, so
		// the seed moves the order, not the work.
		for _, ci := range rng.Perm(len(b.w.cells)) {
			d, _, _ := b.do(&b.w.cells[ci], nil)
			durs = append(durs, ms(d))
			if cfg.smoke > 0 && len(durs) >= cfg.smoke {
				break
			}
		}
		d := time.Since(ps)
		runtime.ReadMemStats(&m)
		mallocs += m.Mallocs - m0
		wall += d
		passSecs = append(passSecs, d.Seconds())
	}
	n := len(durs)
	tail, pct, beyond := tailOf(durs)
	failed := b.failed()
	res := &result{
		Correct: b.wrong == 0, Attempted: n, Failed: failed,
		Metrics: map[string]metric{
			"ops_per_s":     {float64(n) / wall.Seconds(), "1/s"},
			"op_p50_ms":     {median(durs), "ms"},
			"op_tail_ms":    {tail, "ms"},
			"setup_s":       {median(b.setups), "s"},
			"peak_rss_mib":  {peakRSSMiB(), "MiB"},
			"allocs_per_op": {float64(mallocs) / float64(n), "count"},
		},
	}
	fmt.Fprintf(stdout, "run: %d ops in %d passes over %.3fs (pass seconds %s)\n", n, passes, wall.Seconds(), fmtList(passSecs))
	fmt.Fprintf(stdout, "set-up: %d rounds (%s s)\n", len(b.setups), fmtList(b.setups))
	fmt.Fprintf(stdout, "tail: p%.2f over %d ops, %d ops beyond it\n", pct, n, beyond)
	// A recovered panic leaves the failed run's rank goroutines parked,
	// holding their simulation; this shows what they keep alive.
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	fmt.Fprintf(stdout, "goroutines: %d before the loop, %d after; live heap after the loop %.1f MiB\n",
		g0, runtime.NumGoroutine(), float64(m2.HeapAlloc)/(1<<20))
	for _, name := range []string{"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mib", "allocs_per_op"} {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-14s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "%-14s %14.6g %s\n", "fail_ratio", float64(failed)/float64(n), "ratio")
	writeFailures(stdout, b)
	return res, nil
}

func writeFailures(w io.Writer, b *bench) {
	for _, l := range b.order {
		f := b.fails[l]
		fmt.Fprintf(w, "failed x%d: %s\n  %v\n", f.count, f.label, f.err)
	}
	for _, l := range b.warmFails.order {
		f := b.warmFails.fails[l]
		fmt.Fprintf(w, "set-up failure x%d (not counted): %s\n  %v\n", f.count, f.label, f.err)
	}
}

// tracedRun is the per-layer run over a fixed op list: the first
// traceOps ops of the seeded order. Each op runs untraced and with
// spans and per-layer probes; the traced simulated outputs must equal
// the untraced ones. Runtime counters come from the untraced halves.
func tracedRun(cfg config, b *bench, stdout io.Writer) (*result, error) {
	k := traceOps
	if cfg.smoke > 0 && cfg.smoke < k {
		k = cfg.smoke
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var seq []int
	for len(seq) < k {
		seq = append(seq, rng.Perm(len(b.w.cells))...)
	}
	seq = seq[:k]

	// Each op runs untraced and traced back to back, alternating which
	// half goes first so neither always meets the colder state; the
	// time difference of the halves is the tracing overhead.
	tr := newTracer()
	var aTotal, bTotal time.Duration
	var gcs, pauseNs, allocB uint64
	for i, ci := range seq {
		c := &b.w.cells[ci]
		var dA, dB time.Duration
		var oA, oB out
		var okA, okB bool
		untraced := func() {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			dA, oA, okA = b.do(c, nil)
			runtime.ReadMemStats(&m1)
			gcs += uint64(m1.NumGC - m0.NumGC)
			pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
			allocB += m1.TotalAlloc - m0.TotalAlloc
		}
		tr.op = i
		if i%2 == 0 {
			untraced()
			dB, oB, okB = b.do(c, tr)
		} else {
			dB, oB, okB = b.do(c, tr)
			untraced()
		}
		aTotal += dA
		bTotal += dB
		if okA && okB && !sameBits(oA, oB) {
			b.fail(c.label, wrongOutput{fmt.Errorf("traced output %v != untraced %v", oB, oA)})
		}
	}
	if err := writeSpans(cfg.spans, tr.spans); err != nil {
		return nil, err
	}

	// Layers the workload never touches are read from one fixed probe
	// cell each, so every metric is measured on every workload. The
	// probe cells are checked like any other op.
	suite := newTracer()
	probes, err := probeSuite(b.refs)
	if err != nil {
		return nil, err
	}
	for i := range probes {
		b.do(&probes[i], suite)
	}

	opsA := float64(k) / aTotal.Seconds()
	opsB := float64(k) / bTotal.Seconds()
	mismatches := append(tr.mismatches, suite.mismatches...)
	res := &result{Correct: b.wrong == 0 && len(mismatches) == 0, Attempted: 2*k + len(probes), Failed: b.failed(), Metrics: map[string]metric{}}
	fmt.Fprintf(stdout, "traced run: %d ops, each run untraced and traced (%d spans -> %s)\n", k, len(tr.spans), cfg.spans)
	for _, lm := range layerMetrics {
		v, ok := lm.get(tr)
		src := ""
		if !ok {
			v, _ = lm.get(suite)
			src = "  (probe cell: workload does not touch this layer)"
		}
		res.Metrics[lm.name] = metric{v, lm.unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s%s\n", lm.name, v, lm.unit, src)
	}
	per := float64(k)
	extra := []struct {
		name, unit string
		v          float64
	}{
		{"store.scan_ms", "ms", median(b.scans)},
		{"runtime.gc_cycles_per_op", "count", float64(gcs) / per},
		{"runtime.gc_pause_ms_per_op", "ms", float64(pauseNs) / 1e6 / per},
		{"runtime.alloc_bytes_per_op", "B", float64(allocB) / per},
		{"traced.ops_per_s", "1/s", opsB},
		{"traced.untraced_ops_per_s", "1/s", opsA},
		{"traced.overhead_share", "ratio", 1 - opsB/opsA},
	}
	for _, e := range extra {
		res.Metrics[e.name] = metric{e.v, e.unit}
		fmt.Fprintf(stdout, "%-30s %14.6g %s\n", e.name, e.v, e.unit)
	}
	writeSelfTimes(stdout, tr.spans, k)
	for _, m := range mismatches {
		fmt.Fprintf(stdout, "probe mismatch: %s\n", m)
	}
	writeFailures(stdout, b)
	return res, nil
}

// probeSuite is one fixed cell per op type, traced only to fill in
// layers the workload itself does not reach. The multi-node cells are
// an x11 and an x12 quick cell, checked against the baseline store. The
// check cell is spec 12 of camc-fuzz's seed-1 corpus with fault and kill
// plans (knl scatter, 10 ranks, partial/EAGAIN faults): the first spec of
// that corpus whose run retries, so fault.retries_per_op reads a count.
func probeSuite(r *refs) ([]cell, error) {
	bcast, err := core.LookupAlgorithm(core.KindBcast, "knomial-read")
	if err != nil {
		return nil, err
	}
	coll := &collOp{a: arch.KNL(), kind: core.KindBcast, spec: bcast.Name, algo: bcast.Run, count: 4 << 10}
	hier := &hierOp{a: arch.KNL(), kind: core.KindBcast, design: cluster.DesignLeader, nodes: 64, ppn: 8, count: 16 << 10}
	hierWant, err := r.get(refKey{exp: "x11", arch: "knl", coll: "bcast", series: string(hier.design), x: strconv.Itoa(hier.nodes)})
	if err != nil {
		return nil, err
	}
	rec, err := x12Cell(r, &recoverOp{topo: "fattree", design: cluster.DesignLeader, nodes: 64, scenario: 1})
	if err != nil {
		return nil, err
	}
	rec.label = "probe/" + rec.label
	spec := &specOp{sp: check.Gen(1, 12, check.GenOptions{Faults: true, Kills: true})}
	return []cell{
		{label: "probe/" + coll.String(), op: coll},
		{label: "probe/x11/" + hier.String(), want: out{hierWant}, op: hier},
		rec,
		{label: "probe/" + spec.sp.String(), op: spec},
	}, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the value at the highest percentile with at least ten
// samples beyond it, that percentile, and the number of samples beyond.
// Below eleven samples it falls back to the maximum.
func tailOf(v []float64) (val, pct float64, beyond int) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.2f", x)
	}
	return strings.Join(parts, ",")
}

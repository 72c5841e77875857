package main

import (
	"fmt"
	"strconv"
	"strings"

	"camc/internal/arch"
	"camc/internal/check"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/liveness"
	"camc/internal/measure"
)

// out is an op's simulated output. Virtual time is deterministic, so
// two runs of one cell must agree on every value bit for bit.
type out []float64

// operation is one catalogue cell's executable part. exec runs the op;
// with a non-nil tracer it also records the spans and counters of the
// layers the op passes through.
type operation interface {
	exec(tr *tracer) (out, error)
}

// prober is an operation with per-layer probes: extra timed calls the
// traced run makes after the op to split its time into layers.
type prober interface {
	probe(tr *tracer, o out)
}

// cell is one catalogue entry.
type cell struct {
	label string
	// want is the baseline store's value; nil means the cell must
	// reproduce its first result whenever it recurs.
	want out
	op   operation
}

// workload is a fixed catalogue of cells plus how a run walks it.
type workload struct {
	cells []cell
	// warm lists the catalogue indices run (untimed) during set-up.
	warm []int
	// passSeconds is a nominal pass time, within the range measured on
	// the reference host (2-vCPU x86-64 VM, Go 1.24, GOMAXPROCS 1). A run
	// makes round(seconds/passSeconds) passes, at least one, so the op
	// count of a run is fixed by its arguments and not by the host's speed.
	passSeconds float64
}

var workloadNames = []string{"node", "fabric"}

func buildWorkload(name string, r *refs) (*workload, error) {
	switch name {
	case "node":
		return nodeWorkload(r)
	case "fabric":
		return fabricWorkload(r)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// every lists the indices below n from first on, stride apart.
func every(n, first, stride int) []int {
	var idx []int
	for i := first; i < n; i += stride {
		idx = append(idx, i)
	}
	return idx
}

// ---- node: one measure.Collective per op at the default rank count ----

// nodeSizes is the 1 KiB – 4 MiB ladder the node catalogue rotates
// through.
var nodeSizes = []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}

// nodeAmbient is the co-tenant lock pressure the catalogue rotates
// through (x13's buckets).
var nodeAmbient = []int{0, 8, 32}

// nodeMaxSize caps a cell's message size. Power8's largest paper size
// is 2 MiB; its 160-rank alltoall/allgather cells are held to 64 KiB
// because their shared-memory variants take seconds per op above that,
// and one such op would outweigh a whole pass. Allgather elsewhere is
// held to 2 MiB: at 4 MiB broadwell's ring-shm cell took twice as long
// as any other cell, so its eight samples alone sat above op_tail_ms,
// and the tail landed on the few slowest samples of the next cells.
func nodeMaxSize(a *arch.Profile, kind core.Kind) int64 {
	if a.Name != "power8" {
		if kind == core.KindAllgather {
			return 2 << 20
		}
		return 4 << 20
	}
	if kind == core.KindAlltoall || kind == core.KindAllgather {
		return 64 << 10
	}
	return 2 << 20
}

func nodeWorkload(r *refs) (*workload, error) {
	w := &workload{passSeconds: 4.5}
	// Every kind × registered algorithm family × architecture, with the
	// size and ambient rotating along the catalogue so the whole ladder
	// and every pressure bucket are covered.
	i := 0
	for _, a := range arch.All() {
		for _, kind := range core.SpecKinds() {
			for _, info := range core.Specs(kind) {
				al, err := core.LookupAlgorithm(kind, info.Name)
				if err != nil {
					return nil, err
				}
				size := nodeSizes[i%len(nodeSizes)]
				if m := nodeMaxSize(a, kind); size > m {
					size = m
				}
				amb := nodeAmbient[i%len(nodeAmbient)]
				c := &collOp{a: a, kind: kind, spec: al.Name, algo: al.Run, count: size, ambient: amb}
				w.cells = append(w.cells, cell{label: c.String(), op: c})
				i++
			}
		}
	}
	// The Fig 7 scatter cells, checked against the baseline store.
	for _, a := range arch.All() {
		for _, series := range fig7Series(a) {
			for _, size := range []int64{4 << 10, 64 << 10, largestSize(a)} {
				spec := series
				if k, ok := strings.CutPrefix(series, "throttle="); ok {
					spec = "throttled:" + k
				}
				al, err := core.LookupAlgorithm(core.KindScatter, spec)
				if err != nil {
					return nil, err
				}
				want, err := r.get(refKey{exp: "fig7", arch: a.Name, coll: "scatter", series: series, x: sizeLabel(size)})
				if err != nil {
					return nil, err
				}
				c := &collOp{a: a, kind: core.KindScatter, spec: al.Name, algo: al.Run, count: size}
				w.cells = append(w.cells, cell{label: "fig7/" + c.String(), want: out{want}, op: c})
			}
		}
	}
	w.warm = every(len(w.cells), 0, 3)
	return w, nil
}

// fig7Series are the Fig 7 legend entries per architecture.
func fig7Series(a *arch.Profile) []string {
	ks := map[string][]int{"knl": {2, 4, 8, 16}, "broadwell": {2, 4, 7, 14}, "power8": {2, 4, 10, 20}}[a.Name]
	var s []string
	for _, k := range ks {
		s = append(s, "throttle="+strconv.Itoa(k))
	}
	return append(s, "parallel-read", "sequential-write")
}

func largestSize(a *arch.Profile) int64 {
	if a.Name == "power8" {
		return 2 << 20
	}
	return 4 << 20
}

func sizeLabel(b int64) string {
	switch {
	case b >= 1<<20 && b%(1<<20) == 0:
		return fmt.Sprintf("%dM", b>>20)
	case b >= 1<<10 && b%(1<<10) == 0:
		return fmt.Sprintf("%dK", b>>10)
	}
	return strconv.FormatInt(b, 10)
}

// ---- fabric: multi-node collectives and world-level recovery ----

// fabricLadders are x11's six fabric ladders: kind, ranks per node and
// bytes per rank block.
var fabricLadders = []struct {
	kind  core.Kind
	ppn   int
	count int64
}{
	{core.KindBcast, 8, 16 << 10},
	{core.KindGather, 8, 4 << 10},
	{core.KindScatter, 8, 4 << 10},
	{core.KindReduce, 8, 16 << 10},
	{core.KindAllgather, 4, 256},
	{core.KindAlltoall, 4, 16},
}

// fabricNodes are x11's quick node counts.
var fabricNodes = []int{64, 256}

// fabricWorkload is the 108 x11 quick cells (6 ladders × flat/leader/
// shared × 64/256 nodes × 3 archs) plus x12's 18 quick kill cells at 64
// nodes (2 topologies × 3 designs × 3 scenarios), every one checked
// against the baseline store. The x12 cells are about a sixth of a
// pass.
func fabricWorkload(r *refs) (*workload, error) {
	w := &workload{passSeconds: 5.2}
	for _, a := range arch.All() {
		for _, l := range fabricLadders {
			for _, d := range cluster.Designs() {
				for _, n := range fabricNodes {
					c := &hierOp{a: a, kind: l.kind, design: d, nodes: n, ppn: l.ppn, count: l.count}
					want, err := r.get(refKey{exp: "x11", arch: a.Name, coll: string(l.kind), series: string(d), x: strconv.Itoa(n)})
					if err != nil {
						return nil, err
					}
					w.cells = append(w.cells, cell{label: "x11/" + c.String(), want: out{want}, op: c})
				}
			}
		}
	}
	for _, topo := range []string{"fattree", "dragonfly"} {
		for _, d := range cluster.Designs() {
			for si := range x12Scenarios {
				c, err := x12Cell(r, &recoverOp{topo: topo, design: d, nodes: 64, scenario: si})
				if err != nil {
					return nil, err
				}
				w.cells = append(w.cells, c)
			}
		}
	}
	w.warm = every(len(w.cells), 0, 3)
	return w, nil
}

// x12Cell is a catalogue cell for op with its four stored latencies.
func x12Cell(r *refs, op *recoverOp) (cell, error) {
	want := make(out, len(x12Metrics))
	for i, m := range x12Metrics {
		v, err := r.get(refKey{exp: "x12", table: m + "/" + op.topo, arch: "knl", coll: "gather",
			series: string(op.design) + "/" + x12Scenarios[op.scenario].name, x: strconv.Itoa(op.nodes)})
		if err != nil {
			return cell{}, err
		}
		want[i] = v
	}
	return cell{label: "x12/" + op.String(), want: want, op: op}, nil
}

// x12 is KNL gather at PPN 4 with 64-byte blocks; the deadline is the
// experiment's default.
const (
	x12PPN      = 4
	x12Count    = 64
	x12Deadline = 2000
)

var x12Scenarios = []struct {
	name  string
	kills []cluster.Kill
}{
	{"kill-member", []cluster.Kill{{World: 5, Op: 1}}},
	{"kill-leader", []cluster.Kill{{World: 4, Op: 1}}},
	{"kill-node", []cluster.Kill{{World: 4, Op: 1}, {World: 5, Op: 1}, {World: 6, Op: 1}, {World: 7, Op: 1}}},
}

// x12Metrics are the four x12 tables, by title prefix, in the order
// recoverOp reports them.
var x12Metrics = []string{"Detection latency", "Shrink latency", "Re-election latency", "Re-run latency over the survivor world (us)"}

// ---- operations ----

// collOp is one dataless measure.Collective call.
type collOp struct {
	a       *arch.Profile
	kind    core.Kind
	spec    string
	algo    coreAlgo
	count   int64
	procs   int // 0 = architecture default
	ambient int
}

func (c *collOp) String() string {
	p := c.procs
	if p == 0 {
		p = c.a.DefaultProcs
	}
	return fmt.Sprintf("%s/%s/%s/%s/p%d/amb%d", c.a.Name, c.kind, c.spec, sizeLabel(c.count), p, c.ambient)
}

func (c *collOp) opts() measure.Options {
	return measure.Options{Procs: c.procs, Ambient: c.ambient}
}

func (c *collOp) exec(tr *tracer) (out, error) {
	var lat float64
	d := tr.timed("measure.collective", func() { lat = measure.Collective(c.a, c.kind, c.algo, c.count, c.opts()) })
	tr.add("measure.op_ms", ms(d))
	return out{lat}, nil
}

// hierOp is one dataless multi-node collective: cluster.New → Lookup →
// Cluster.Run → Release, the x11 cell shape.
type hierOp struct {
	a      *arch.Profile
	kind   core.Kind
	design cluster.Design
	nodes  int
	ppn    int
	count  int64
}

func (c *hierOp) String() string {
	return fmt.Sprintf("%s/%s/%s/n%d/ppn%d", c.a.Name, c.kind, c.design, c.nodes, c.ppn)
}

func (c *hierOp) exec(tr *tracer) (out, error) {
	var (
		cl   *cluster.Cluster
		coll cluster.Coll
		err  error
		done float64
	)
	tr.timed("cluster.build", func() {
		cl = cluster.New(cluster.Config{Arch: c.a, NumNodes: c.nodes, PPN: c.ppn})
		coll, err = cluster.Lookup(cl, c.kind, c.design, "")
	})
	if err != nil {
		return nil, err
	}
	sendLen, recvLen := hierBufSizes(c.kind, cl.WorldSize(), c.count)
	d := tr.timed("cluster.run", func() {
		done, err = cl.Run(func(r *cluster.Rank) {
			send := r.Alloc(sendLen)
			recv := r.Alloc(recvLen)
			coll.Run(r, cluster.Args{Send: send, Recv: recv, Count: c.count})
		})
	})
	if err != nil {
		return nil, err
	}
	if tr != nil {
		ev := float64(cl.Sim.EventsProcessed())
		tr.add("cluster.events", ev)
		tr.add("sim.events", ev)
		tr.add("sim.host_ns", float64(d))
		tr.add("cluster.link_injected", float64(injected(cl.Fabric.LinkStats())))
	}
	tr.timed("cluster.release", func() { cluster.Release(cl) })
	return out{done}, nil
}

// hierBufSizes are x11's per-rank buffer sizes at world size w.
func hierBufSizes(kind core.Kind, w int, count int64) (int64, int64) {
	switch kind {
	case core.KindScatter:
		return int64(w) * count, count
	case core.KindGather, core.KindAllgather:
		return count, int64(w) * count
	case core.KindAlltoall:
		return int64(w) * count, int64(w) * count
	}
	return count, count // bcast, reduce
}

func injected(links []cluster.LinkStat) int64 {
	var n int64
	for _, l := range links {
		n += l.Injected
	}
	return n
}

// recoverOp is one x12 world-level recovery cycle through
// measure.ClusterRecovered.
type recoverOp struct {
	topo     string
	design   cluster.Design
	nodes    int
	scenario int
}

func (c *recoverOp) String() string {
	return fmt.Sprintf("knl/gather/%s/%s/n%d/%s", c.topo, c.design, c.nodes, x12Scenarios[c.scenario].name)
}

func (c *recoverOp) exec(tr *tracer) (out, error) {
	sc := x12Scenarios[c.scenario]
	lcfg := liveness.Config{Deadline: x12Deadline, Poll: 10}
	var (
		res measure.ClusterRecoveryResult
		err error
	)
	d := tr.timed("cluster.recover", func() {
		res, err = measure.ClusterRecovered(arch.KNL(), core.KindGather, c.design, "tuned", x12Count,
			measure.ClusterOptions{Nodes: c.nodes, PPN: x12PPN, Topo: c.topo, Liveness: &lcfg, Kills: sc.kills})
	})
	if err != nil {
		return nil, err
	}
	if want := c.nodes*x12PPN - len(sc.kills); res.Survivors != want {
		return nil, wrongOutput{fmt.Errorf("%d survivors after %d kills, want %d", res.Survivors, len(sc.kills), want)}
	}
	if tr != nil {
		tr.add("cluster.events", float64(res.Events))
		tr.add("sim.events", float64(res.Events))
		tr.add("sim.host_ns", float64(d))
		tr.add("cluster.link_injected", float64(injected(res.Links)))
	}
	return out{res.DetectLatency, res.ShrinkLatency, res.ElectLatency, res.RerunLatency}, nil
}

// specOp is one check.RunOne: materialized payload, reference-oracle
// comparison and the invariant registry.
type specOp struct {
	sp check.Spec
	// res is the traced run's result, kept only until probe reads it.
	res *check.RunResult
}

// runOne is check.RunOne; the self-tests swap it to inject a mismatch.
var runOne = check.RunOne

func (c *specOp) exec(tr *tracer) (out, error) {
	var (
		res *check.RunResult
		err error
	)
	d := tr.timed("check.runone", func() { res, err = runOne(c.sp) })
	if err != nil && res != nil {
		// RunOne returns its result with the error when the run finished
		// but disagreed with the reference executor or broke an invariant.
		return nil, wrongOutput{err}
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		c.res = res
		tr.add("sim.events", float64(res.Events))
		tr.add("sim.host_ns", float64(d))
	}
	return out{res.Latency, float64(res.Events), float64(res.Stats.Retries)}, nil
}

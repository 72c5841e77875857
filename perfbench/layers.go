package main

import (
	"math"
	"math/rand"
	"time"

	"camc/internal/check"
	"camc/internal/core"
	"camc/internal/measure"
	"camc/internal/mpi"
	"camc/internal/trace"
)

type coreAlgo = func(*mpi.Rank, core.Args)

// noop is the fence probe's algorithm: it returns at once, so timing it
// through measure.Collective leaves only the harness's own cost.
func noop(*mpi.Rank, core.Args) {}

// probe splits a measure.Collective op into the harness fence, the
// communicator and control plane, the simulator and the kernel path.
func (c *collOp) probe(tr *tracer, o out) {
	fence := tr.timed("measure.fence", func() { measure.Collective(c.a, c.kind, noop, c.count, c.opts()) })
	tr.add("measure.fence_ms", ms(fence))
	tr.add("core.algo_ms", ms(tr.opDur-fence))

	procs := c.procs
	if procs == 0 {
		procs = c.a.DefaultProcs
	}
	cfg := mpi.Config{Arch: c.a, Procs: procs, Ambient: c.ambient, MemPerProc: 1 << 22}
	empty := tr.timed("mpi.run_empty", func() { _, _ = mpi.Run(cfg, func(*mpi.Rank) {}) })
	barrier := tr.timed("mpi.run_barrier", func() { _, _ = mpi.Run(cfg, func(r *mpi.Rank) { r.Barrier() }) })
	ag := tr.timed("mpi.run_allgather64", func() { _, _ = mpi.Run(cfg, func(r *mpi.Rank) { r.Allgather64(int64(r.ID)) }) })
	tr.add("mpi.comm_build_ms", ms(empty))
	tr.add("shm.barrier_ms", ms(barrier-empty))
	tr.add("shm.allgather64_ms", ms(ag-empty))

	// Replay the op's fenced body through mpi.Run, which reports the
	// simulator's dispatch count that measure keeps to itself.
	sendLen, recvLen := measureBufSizes(c.kind, procs, c.count)
	cfg.MemPerProc = max(2*(4*int64(procs)+8)*(c.count+int64(c.a.PageSize)), 1<<22)
	var res mpi.Result
	var err error
	d := tr.timed("sim.replay", func() {
		res, err = mpi.Run(cfg, func(r *mpi.Rank) {
			a := core.Args{Send: r.Alloc(sendLen), Recv: r.Alloc(recvLen), Count: c.count}
			r.Barrier()
			c.algo(r, a)
			r.Barrier()
		})
	})
	if err == nil {
		tr.add("sim.events", float64(res.Events))
		tr.add("sim.host_ns", float64(d))
	}

	// The same op with a trace recorder attached: the kernel's simulated
	// CMA accounting, and a transparency check — recording never sleeps,
	// so the latency must equal the untraced op's bit for bit.
	var lat float64
	var rec *trace.Recorder
	tr.timed("kernel.cma_traced", func() { lat, rec = measure.CollectiveTraced(c.a, c.kind, c.algo, c.count, c.opts()) })
	if math.Float64bits(lat) != math.Float64bits(o[0]) {
		tr.mismatch("%s: traced latency %v != untraced %v", c, lat, o[0])
	}
	s := trace.SummarizeCMA(rec)
	tr.add("kernel.cma_ops", float64(s.Ops))
	tr.add("kernel.lock_us", s.Lock)
	tr.add("kernel.copy_us", s.Copy)
	tr.add("kernel.max_concurrency", float64(s.MaxC))
}

// measureBufSizes mirrors measure.Collective's per-rank buffers.
func measureBufSizes(kind core.Kind, p int, count int64) (int64, int64) {
	switch kind {
	case core.KindScatter:
		return int64(p) * count, count
	case core.KindGather:
		return count, int64(p) * count
	case core.KindAlltoall, core.KindAllgather:
		return int64(p) * count, int64(p) * count
	case core.KindBcast:
		return count, count
	}
	return 0, 0
}

// probe times the check layer's two oracle halves on the op's spec and
// reads the trace and fault accounting of the run.
func (c *specOp) probe(tr *tracer, _ out) {
	res := c.res
	c.res = nil
	if res == nil {
		return
	}
	sp := c.sp
	p := sp.Procs
	if sp.Nodes > 0 {
		p = sp.Nodes * sp.Procs
	}
	if sendLen, _, err := check.BufSizes(sp.Kind, p, sp.Count); err == nil {
		rng := rand.New(rand.NewSource(sp.Seed))
		sends := make([][]byte, p)
		for i := range sends {
			sends[i] = make([]byte, sendLen)
			rng.Read(sends[i])
		}
		d := tr.timed("check.reference", func() { _, _ = check.Reference(sp.Kind, p, sp.Count, sp.Root, sends) })
		tr.add("check.reference_ms", ms(d))
	}
	d := tr.timed("check.invariants", func() {
		if v := check.CheckInvariants(res); len(v) > 0 {
			tr.mismatch("%s: %d invariant violations on re-check", sp, len(v))
		}
	})
	tr.add("check.invariants_ms", ms(d))
	tr.add("trace.events", float64(res.Rec.Len()))
	retries := res.Stats.Retries
	if res.Recovery != nil {
		retries = res.Recovery.Stats.Retries
	}
	tr.add("fault.retries", float64(retries))
}

// layerMetric is one per-layer metric: its name, unit and how to read
// it from the traced run's accumulators. ok=false means no op of the
// workload touched the layer.
type layerMetric struct {
	name, unit string
	get        func(t *tracer) (float64, bool)
}

func mean(name string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		a := t.acc[name]
		if a == nil {
			return 0, false
		}
		return a.mean(), true
	}
}

func maxOf(name string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		a := t.acc[name]
		if a == nil {
			return 0, false
		}
		return a.max, true
	}
}

// ratio reads sum(num)/sum(den).
func ratio(num, den string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		n, d := t.acc[num], t.acc[den]
		if n == nil || d == nil || d.sum == 0 {
			return 0, false
		}
		return n.sum / d.sum, true
	}
}

// spanMean is the mean duration in ms of the spans called name.
func spanMean(name string) func(*tracer) (float64, bool) {
	return func(t *tracer) (float64, bool) {
		var sum time.Duration
		n := 0
		for _, s := range t.spans {
			if s.Name == name {
				sum += time.Duration(s.End - s.Start)
				n++
			}
		}
		if n == 0 {
			return 0, false
		}
		return ms(sum) / float64(n), true
	}
}

// layerMetrics are the per-layer metrics the traced run derives from
// its spans and counters; tracedRun adds the set-up, runtime and
// overhead metrics.
var layerMetrics = []layerMetric{
	{"measure.fence_ms", "ms", mean("measure.fence_ms")},
	{"measure.fence_share", "ratio", ratio("measure.fence_ms", "measure.op_ms")},
	{"core.algo_ms", "ms", mean("core.algo_ms")},
	{"mpi.comm_build_ms", "ms", mean("mpi.comm_build_ms")},
	{"shm.barrier_ms", "ms", mean("shm.barrier_ms")},
	{"shm.allgather64_ms", "ms", mean("shm.allgather64_ms")},
	{"sim.events_per_op", "count", mean("sim.events")},
	{"sim.ns_per_event", "ns", ratio("sim.host_ns", "sim.events")},
	{"kernel.cma_ops_per_op", "count", mean("kernel.cma_ops")},
	{"kernel.lock_us_per_op", "us", mean("kernel.lock_us")},
	{"kernel.copy_us_per_op", "us", mean("kernel.copy_us")},
	{"kernel.max_concurrency", "count", maxOf("kernel.max_concurrency")},
	{"cluster.build_ms", "ms", spanMean("cluster.build")},
	{"cluster.run_ms", "ms", spanMean("cluster.run")},
	{"cluster.release_ms", "ms", spanMean("cluster.release")},
	{"cluster.recover_ms", "ms", spanMean("cluster.recover")},
	{"cluster.events_per_op", "count", mean("cluster.events")},
	{"cluster.link_injected_per_op", "count", mean("cluster.link_injected")},
	{"check.runone_ms", "ms", spanMean("check.runone")},
	{"check.reference_ms", "ms", mean("check.reference_ms")},
	{"check.invariants_ms", "ms", mean("check.invariants_ms")},
	{"trace.events_per_op", "count", mean("trace.events")},
	{"fault.retries_per_op", "count", mean("fault.retries")},
}

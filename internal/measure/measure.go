// Package measure times collective operations on the simulated node.
// Because the simulator is deterministic and noise-free, a single
// invocation yields the exact latency; the harness still supports
// multi-iteration averaging for experiments that want to amortize
// per-invocation setup the way the paper's OSU-style benchmarks do.
package measure

import (
	"math"
	"math/rand"
	"sync"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/mpi"
	"camc/internal/sim"
	"camc/internal/trace"
)

// Options configures a measurement.
type Options struct {
	Procs int   // ranks; 0 = architecture default (full subscription)
	Iters int   // timed invocations; 0 = 1
	Root  int   // root for rooted collectives
	Mem   int64 // per-rank address space; 0 = sized automatically

	// Mechanism selects the kernel-assist facility (default CMA).
	Mechanism kernel.Mechanism

	// Ambient is the static co-tenant lock pressure: phantom page-lock
	// holders co-located jobs hold on the machine, added to every γ(c)
	// sample. The tuner sweeps it to show how tuned crossovers shift
	// under multi-tenant interference (x13).
	Ambient int

	// Sparse enables per-page payload digest tracking (mpi.Config.Sparse)
	// on the otherwise dataless measurement run. Latencies are unaffected;
	// harnesses that cross-check digest equality against a materialized
	// run set it.
	Sparse bool

	// SkewSeed, when non-zero, injects a deterministic random start
	// delay of up to MaxSkew microseconds per rank before each timed
	// invocation — the process skew the paper says turns contention-free
	// schedules into contended ones.
	SkewSeed int64
	MaxSkew  float64

	// Fault, when non-nil and active, attaches a deterministic
	// fault-injection plan (see internal/fault): the measured latency
	// then includes retries, backoff, straggler delays and degraded-path
	// traffic, while payloads stay exact.
	Fault *fault.Config

	// Liveness, when non-nil, attaches a failure-detection board and
	// deadline watchdogs to every blocking primitive (see
	// internal/liveness). Required by CollectiveRecovered when the fault
	// plan includes the kill class; harmless otherwise (a healthy run's
	// latencies are unchanged — completed timed waits are free).
	Liveness *liveness.Config
}

// Collective returns the latency in microseconds of one collective
// invocation: the time from the instant the last rank enters the
// operation to the instant the last rank leaves it, averaged over
// Options.Iters invocations. Runs are cost-only (no data movement).
func Collective(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) float64 {
	return collective(a, kind, algo, count, opts, nil)
}

// CollectiveTraced measures exactly like Collective but with a trace
// recorder attached, returning the recorder alongside the latency.
// Recording never sleeps, so the returned latency is bit-identical to
// the untraced one (asserted by TestTraceDeterminism).
func CollectiveTraced(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) (float64, *trace.Recorder) {
	rec := trace.NewUnbound()
	lat := collective(a, kind, algo, count, opts, rec)
	return lat, rec
}

// simPool recycles simulations (event-heap backing, Proc and timer free
// lists) across sweep cells: a successful run leaves every process
// finished, so the sim Resets cleanly and the next cell's Spawn loop
// stops re-allocating resume channels.
var simPool = sync.Pool{New: func() any { return sim.New() }}

// scratch is the per-cell working set the sweep loop reuses instead of
// re-allocating: buffer address tables, the start/end timestamp arrays,
// and the skew schedule.
type scratch struct {
	send, recv         []kernel.Addr
	starts, ends, skew []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func addrs(s []kernel.Addr, n int) []kernel.Addr {
	if cap(s) < n {
		return make([]kernel.Addr, n)
	}
	return s[:n]
}

func floats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// satMul multiplies non-negative int64s, saturating at MaxInt64 instead
// of wrapping. The generous-mem heuristic below multiplies procs, count
// and iters — at 64k ranks × megabyte counts the naive product wraps
// negative and NewProcess would panic on a "negative" limit.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

func collective(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options, rec *trace.Recorder) float64 {
	procs := opts.Procs
	if procs == 0 {
		procs = a.DefaultProcs
	}
	iters := opts.Iters
	if iters == 0 {
		iters = 1
	}
	mem := opts.Mem
	if mem == 0 {
		// Generous virtual sizing: p blocks for send and recv plus
		// staging room for Bruck-style algorithms per iteration. The
		// limit is purely virtual (pages materialize only when written),
		// so saturating at MaxInt64 is harmless — overflow-wrapping to a
		// negative limit is not.
		mem = satMul(satMul(4*int64(procs)+8, count+int64(a.PageSize)), int64(iters+1))
		if mem < 1<<22 {
			mem = 1 << 22
		}
	}
	sm := simPool.Get().(*sim.Simulation)
	c := mpi.New(mpi.Config{Arch: a, Procs: procs, CopyData: false, Sparse: opts.Sparse, Sim: sm, MemPerProc: mem, Mechanism: opts.Mechanism, Ambient: opts.Ambient, Fault: opts.Fault, Liveness: opts.Liveness})
	c.AttachTrace(rec)
	plan := c.FaultPlan()
	sc := scratchPool.Get().(*scratch)
	var skew []float64
	if opts.SkewSeed != 0 && opts.MaxSkew > 0 {
		rng := rand.New(rand.NewSource(opts.SkewSeed))
		skew = floats(sc.skew, procs*iters)
		sc.skew = skew
		for i := range skew {
			skew[i] = rng.Float64() * opts.MaxSkew
		}
	}
	send := addrs(sc.send, procs)
	recv := addrs(sc.recv, procs)
	sc.send, sc.recv = send, recv
	blocks := int64(procs)
	var sendLen, recvLen int64
	switch kind {
	case core.KindScatter:
		sendLen, recvLen = blocks*count, count
	case core.KindGather:
		sendLen, recvLen = count, blocks*count
	case core.KindAlltoall, core.KindAllgather:
		sendLen, recvLen = blocks*count, blocks*count
	case core.KindBcast:
		sendLen, recvLen = count, count
	}
	for i := 0; i < procs; i++ {
		send[i] = c.Rank(i).Alloc(sendLen)
		recv[i] = c.Rank(i).Alloc(recvLen)
	}
	starts := floats(sc.starts, procs)
	ends := floats(sc.ends, procs)
	sc.starts, sc.ends = starts, ends
	// The plain path — no recorder, no active fault plan, no liveness
	// board — costs the fence in closed form at the same virtual time.
	// The first entry barrier, entered by every rank at t=0, sleeps
	// straight to its exit instant (shm.Transport.EnterBarrierFromZero). The
	// last exit barrier is skipped and its window read after Run: the
	// window's arrays are written before it, and its control messages
	// touch only per-pair queues, never kernel or γ(c) state, so ranks
	// still inside the collective cannot tell it is gone. Traced, faulted
	// and liveness runs keep the real barriers, whose messages and
	// operations their output counts.
	plain := rec == nil && plan == nil && c.Liveness() == nil
	var total float64
	c.Start(func(r *mpi.Rank) {
		for it := 0; it < iters; it++ {
			if plain && it == 0 {
				c.Shm.EnterBarrierFromZero(r.SP, r.ID)
			} else {
				r.Barrier()
			}
			if skew != nil {
				r.SP.Sleep(skew[it*procs+r.ID])
			}
			starts[r.ID] = r.SP.Now()
			// Straggler skew counts inside the timed window: the rank has
			// entered the collective but is slow to engage (OS noise,
			// descheduling), which is exactly the robustness cost x8 bills.
			if d := plan.StragglerDelay(r.ID, it); d > 0 {
				if rec != nil {
					rec.Instant(r.Lane(), trace.CatFault, "straggle", trace.F("delay", d))
				}
				r.SP.Sleep(d)
			}
			algo(r, core.Args{Send: send[r.ID], Recv: recv[r.ID], Count: count, Root: opts.Root})
			ends[r.ID] = r.SP.Now()
			if plain && it == iters-1 {
				return
			}
			r.Barrier()
			if r.ID == 0 {
				total += maxOf(ends) - maxOf(starts)
			}
		}
	})
	if err := c.Sim.Run(); err != nil {
		panic(err)
	}
	if plain {
		total += maxOf(ends) - maxOf(starts)
	}
	// A nil Run error means every process finished, so the simulation
	// Resets cleanly; recycle it (and the scratch) for the next cell.
	// Panic paths simply drop both — correctness over reuse.
	sm.Reset()
	simPool.Put(sm)
	scratchPool.Put(sc)
	return total / float64(iters)
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		// Degenerate window (no ranks timed): zero width, not a panic.
		return 0
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sweep measures one algorithm across message sizes and returns latencies
// in size order.
func Sweep(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), sizes []int64, opts Options) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = Collective(a, kind, algo, s, opts)
	}
	return out
}

// Sizes builds a power-of-two size ladder [lo, hi]. Degenerate requests
// come back empty rather than looping or panicking: lo must be
// positive (a zero or negative lo would never double its way past hi)
// and the range must be non-empty.
func Sizes(lo, hi int64) []int64 {
	if lo <= 0 || hi < lo {
		return nil
	}
	var out []int64
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// Package measure times collective operations on the simulated node.
// Because the simulator is deterministic and noise-free, a single
// invocation yields the exact latency; the harness still supports
// multi-iteration averaging for experiments that want to amortize
// per-invocation setup the way the paper's OSU-style benchmarks do.
package measure

import (
	"math"
	"sync"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/mpi"
	"camc/internal/payload"
	"camc/internal/sim"
	"camc/internal/trace"
)

// Options configures a measurement.
type Options struct {
	Procs int // ranks; 0 = architecture default (full subscription)
	Iters int // timed invocations; 0 = 1
	Root  int // root for rooted collectives

	// Mechanism selects the kernel-assist facility (default CMA).
	Mechanism kernel.Mechanism

	// Ambient is the static co-tenant lock pressure: phantom page-lock
	// holders co-located jobs hold on the machine, added to every γ(c)
	// sample. The tuner sweeps it to show how tuned crossovers shift
	// under multi-tenant interference (x13).
	Ambient int

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
// Options.Iters invocations (see Time). Runs are cost-only (no data
// movement). It panics on a kind payload.BufSizes does not lay out, on
// a liveness config that fails liveness.Config.Check, and on a
// simulation error.
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
// reuses its Proc shells.
var simPool = sync.Pool{New: func() any { return sim.New() }}

// bufs and window are the per-cell working sets the sweep loop reuses
// instead of re-allocating: the buffer address tables, and the timing
// window's start/end timestamp arrays.
type bufs struct{ send, recv []kernel.Addr }

type window struct{ starts, ends []float64 }

var (
	bufsPool   = sync.Pool{New: func() any { return new(bufs) }}
	windowPool = sync.Pool{New: func() any { return new(window) }}
)

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
// of wrapping. MemPerRank multiplies procs, count and iters — at 64k
// ranks × megabyte counts the naive product wraps negative and
// NewProcess would panic on a "negative" limit.
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

// MemPerRank sizes each rank's virtual address space for a procs-rank
// collective of count-byte blocks timed over iters invocations: p
// blocks for send and recv plus staging room for Bruck-style algorithms
// per iteration, at least 4 MiB. The limit is purely virtual (pages
// materialize only when written), so saturating at MaxInt64 is
// harmless — overflow-wrapping to a negative limit is not.
func MemPerRank(a *arch.Profile, procs int, count int64, iters int) int64 {
	mem := satMul(satMul(4*int64(procs)+8, count+int64(a.PageSize)), int64(iters+1))
	return max(mem, 1<<22)
}

func (o Options) procs(a *arch.Profile) int {
	if o.Procs == 0 {
		return a.DefaultProcs
	}
	return o.Procs
}

func (o Options) iters() int {
	if o.Iters == 0 {
		return 1
	}
	return o.Iters
}

// checkLiveness rejects a liveness config that cannot drive a detector
// (liveness.Config.Check) before it reaches a rank's wait.
func (o Options) checkLiveness() error {
	if o.Liveness == nil {
		return nil
	}
	return o.Liveness.Check()
}

// skew draws the entry skew of n rank-invocations (nil without
// SkewSeed/MaxSkew).
func (o Options) skew(n int) []float64 {
	if o.SkewSeed == 0 || o.MaxSkew <= 0 {
		return nil
	}
	return drawSkew(o.SkewSeed, o.MaxSkew, n)
}

func collective(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options, rec *trace.Recorder) float64 {
	procs, iters := opts.procs(a), opts.iters()
	sendLen, recvLen, err := payload.BufSizes(kind, procs, count)
	if err != nil {
		panic(err)
	}
	if err := opts.checkLiveness(); err != nil {
		panic(err)
	}
	sm := simPool.Get().(*sim.Simulation)
	c := mpi.New(mpi.Config{Arch: a, Procs: procs, Sim: sm, MemPerProc: MemPerRank(a, procs, count, iters), Mechanism: opts.Mechanism, Ambient: opts.Ambient, Fault: opts.Fault, Liveness: opts.Liveness})
	c.AttachTrace(rec)
	b := bufsPool.Get().(*bufs)
	send, recv := addrs(b.send, procs), addrs(b.recv, procs)
	b.send, b.recv = send, recv
	for i := 0; i < procs; i++ {
		send[i] = c.Rank(i).Alloc(sendLen)
		recv[i] = c.Rank(i).Alloc(recvLen)
	}
	lat, err := Time(c, algo, send, recv, count, opts.Root, iters, opts.skew(procs*iters))
	if err != nil {
		panic(err)
	}
	// A nil Run error means every process finished, so the simulation
	// Resets cleanly; recycle it (and the buffer tables) for the next
	// cell. Panic paths simply drop both — correctness over reuse.
	sm.Reset()
	simPool.Put(sm)
	bufsPool.Put(b)
	return lat
}

// Time runs algo iters times on every rank of c inside the OSU-style
// fenced timing window and returns the mean latency in microseconds:
// per invocation, the time from the instant the last rank enters to
// the instant the last rank leaves. Rank r runs with Send send[r] and
// Recv recv[r]. Each invocation is, per rank: the entry barrier, the
// rank's entry skew (skew[it*p+r] when skew is non-nil), the fault
// plan's straggler delay, the algorithm, and the exit barrier. It is
// the one single-node timing loop: Collective, CollectiveChecked and
// the differential checker all time through it. The error is the
// simulation's (a deadlock or a rank's panic).
func Time(c *mpi.Comm, algo func(*mpi.Rank, core.Args), send, recv []kernel.Addr, count int64, root, iters int, skew []float64) (float64, error) {
	p := c.Size()
	w := windowPool.Get().(*window)
	starts, ends := floats(w.starts, p), floats(w.ends, p)
	w.starts, w.ends = starts, ends
	rec, plan := c.Tracer(), c.FaultPlan()
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
				r.SP.Sleep(skew[it*p+r.ID])
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
			algo(r, core.Args{Send: send[r.ID], Recv: recv[r.ID], Count: count, Root: root})
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
		return 0, err
	}
	if plain {
		total += maxOf(ends) - maxOf(starts)
	}
	windowPool.Put(w)
	return total / float64(iters), nil
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

// Sizes builds a power-of-two size ladder [lo, hi]. Degenerate requests
// come back empty rather than looping or panicking: lo must be
// positive (a zero or negative lo would never double its way past hi)
// and the range must be non-empty. The ladder stops before doubling
// past hi, so a hi near MaxInt64 cannot overflow it into a spin.
func Sizes(lo, hi int64) []int64 {
	if lo <= 0 || hi < lo {
		return nil
	}
	var out []int64
	for s := lo; ; s *= 2 {
		out = append(out, s)
		if s > hi/2 {
			return out
		}
	}
}

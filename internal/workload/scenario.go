// Package workload generates multi-tenant scenarios: several MPI jobs
// of different character co-located on one simulated machine,
// interfering through the shared kernel mm-lock model (internal/tenant)
// and the shared memory system rather than through explicit messages.
// This is the workload side of the paper's contention story — the γ(c)
// curve was calibrated on one job, and these scenarios show what it
// costs when the "c" is partly somebody else's.
package workload

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/kernel"
	"camc/internal/mpi"
	"camc/internal/sim"
	"camc/internal/tenant"
	"camc/internal/trace"
)

// Class names a job's communication character.
type Class string

const (
	// ClassTrain is an allreduce-heavy training loop: per iteration one
	// large tuned reduce to rank 0 followed by a tuned bcast of the
	// updated model (the classic parameter-server allreduce split).
	ClassTrain Class = "train"
	// ClassStencil is a halo-exchange stencil: per iteration every rank
	// exchanges medium-sized boundary slabs with its ring neighbours
	// (rendezvous point-to-point, so the halos ride the kernel-assisted
	// CMA path and feel the lock).
	ClassStencil Class = "stencil"
	// ClassRPC is a bursty service: streams of many small collectives
	// (tiny bcast fan-outs and gathers) that mostly ride the eager
	// shared-memory path but keep the copy engines busy.
	ClassRPC Class = "rpc"
)

// defaultSize is the class's characteristic message size.
func (c Class) defaultSize() int64 {
	switch c {
	case ClassTrain:
		return 256 << 10
	case ClassStencil:
		return 32 << 10
	case ClassRPC:
		return 2 << 10
	}
	panic(fmt.Sprintf("workload: unknown class %q", c))
}

// opsPerIter is how many timed collective windows one iteration runs.
func (c Class) opsPerIter() int {
	switch c {
	case ClassTrain:
		return 2 // reduce + bcast
	case ClassStencil:
		return 1 // one halo exchange
	case ClassRPC:
		return 2 // bcast + gather
	}
	panic(fmt.Sprintf("workload: unknown class %q", c))
}

// JobSpec describes one co-located job.
type JobSpec struct {
	Name  string
	Class Class
	Ranks int
	Iters int
	Size  int64 // characteristic message size; 0 = class default
}

func (j JobSpec) withDefaults(a *arch.Profile) JobSpec {
	if j.Ranks == 0 {
		j.Ranks = a.DefaultProcs / 2
		if j.Ranks < 2 {
			j.Ranks = 2
		}
	}
	if j.Iters == 0 {
		j.Iters = 4
	}
	if j.Size == 0 {
		j.Size = j.Class.defaultSize()
	}
	return j
}

// Options configures a scenario run.
type Options struct {
	Arch *arch.Profile
	// Ambient is additional static background pressure (tenant.Host
	// Static holders) on top of whatever the co-located jobs generate.
	Ambient int
	// Trace, when non-nil, records every job onto one recorder; lanes
	// are world-unique (job index × laneStride + rank).
	Trace *trace.Recorder
}

const (
	// laneStride separates jobs' trace-lane id ranges.
	laneStride = 1 << 12
	// memPerProc is each rank's simulated address-space size.
	memPerProc = 1 << 30
)

// JobResult is one job's outcome.
type JobResult struct {
	Name  string
	Class Class
	Ranks int
	Ops   int     // timed collective windows completed
	End   float64 // virtual time the job's last rank finished, us
	// MeanLat is the mean per-operation latency (us), measured exactly
	// like the benchmarks: last-in to last-out per barrier-fenced window.
	MeanLat float64
	// PeakAmbient is the largest co-tenant lock pressure any of the
	// job's transfers observed (other jobs' holders + static).
	PeakAmbient int
}

// Result is one scenario's outcome.
type Result struct {
	Makespan float64 // virtual time the whole mix drained, us
	Jobs     []JobResult
}

// DefaultMix is the canonical three-tenant scenario: a training loop, a
// halo-exchange stencil and a bursty RPC stream sharing one machine.
func DefaultMix(ranksPerJob, iters int) []JobSpec {
	return []JobSpec{
		{Name: "train", Class: ClassTrain, Ranks: ranksPerJob, Iters: iters},
		{Name: "stencil", Class: ClassStencil, Ranks: ranksPerJob, Iters: iters * 2},
		{Name: "rpc", Class: ClassRPC, Ranks: ranksPerJob, Iters: iters * 4},
	}
}

// Run executes the jobs concurrently on one simulated machine. Every
// job gets its own kernel node (own page tables, own shm segment — the
// jobs are separate MPI worlds) registered with one shared tenant
// host, so their kernel-assisted transfers contend for the same
// mm-lock model and memory system. Deterministic: same specs + options
// produce bit-identical results and traces.
func Run(specs []JobSpec, opts Options) (Result, error) {
	if opts.Arch == nil {
		opts.Arch = arch.KNL()
	}
	if len(specs) == 0 {
		return Result{}, fmt.Errorf("workload: empty scenario")
	}
	names := map[string]bool{}
	s := sim.New()
	host := tenant.NewHost()
	host.Static = opts.Ambient

	type runningJob struct {
		spec   JobSpec
		comm   *mpi.Comm
		job    *tenant.Job
		starts []float64
		ends   []float64
		res    *JobResult
	}
	var jobs []*runningJob
	for i, spec := range specs {
		spec = spec.withDefaults(opts.Arch)
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("%s%d", spec.Class, i)
		}
		if names[spec.Name] {
			return Result{}, fmt.Errorf("workload: duplicate job name %q", spec.Name)
		}
		names[spec.Name] = true
		spec.Class.defaultSize() // validates the class
		node := kernel.NewNode(s, opts.Arch)
		node.CopyData = false
		// Distinct pid ranges per job keep kernel trace events on
		// distinct lanes when all jobs share one recorder.
		node.PidBase = (i + 1) << 20
		node.SetTenant(host.Join(spec.Name))
		comm := mpi.NewOnNode(node, spec.Ranks, memPerProc)
		if opts.Trace != nil {
			node.SetRecorder(opts.Trace)
			lanes := make([]int, spec.Ranks)
			for r := 0; r < spec.Ranks; r++ {
				lane := i*laneStride + r
				opts.Trace.RegisterLane(lane, fmt.Sprintf("%s.r%d", spec.Name, r), comm.Rank(r).OS.PID())
				lanes[r] = lane
			}
			comm.Shm.SetLanes(lanes)
		}
		jobs = append(jobs, &runningJob{
			spec:   spec,
			comm:   comm,
			job:    node.Tenant(),
			starts: make([]float64, spec.Ranks),
			ends:   make([]float64, spec.Ranks),
			res:    &JobResult{Name: spec.Name, Class: spec.Class, Ranks: spec.Ranks},
		})
	}

	for _, j := range jobs {
		j := j
		spec := j.spec
		blocks := int64(spec.Ranks)
		send := make([]kernel.Addr, spec.Ranks)
		recv := make([]kernel.Addr, spec.Ranks)
		for r := 0; r < spec.Ranks; r++ {
			// Generous virtual sizing covers every class's largest shape
			// (gather/allgather need p blocks); pages never materialize.
			send[r] = j.comm.Rank(r).Alloc(blocks * spec.Size)
			recv[r] = j.comm.Rank(r).Alloc(blocks * spec.Size)
		}
		var totalLat float64
		// window runs one barrier-fenced collective window and, on rank
		// 0, accumulates the last-in to last-out latency — the same
		// timing discipline internal/measure uses.
		window := func(r *mpi.Rank, op func()) {
			r.Barrier()
			j.starts[r.ID] = r.SP.Now()
			op()
			j.ends[r.ID] = r.SP.Now()
			r.Barrier()
			if r.ID == 0 {
				totalLat += maxOf(j.ends) - maxOf(j.starts)
				j.res.Ops++
			}
		}
		reduce, bcast, gather := core.Tuned(core.KindReduce), core.Tuned(core.KindBcast), core.Tuned(core.KindGather)
		j.comm.Start(func(r *mpi.Rank) {
			args := core.Args{Send: send[r.ID], Recv: recv[r.ID], Count: spec.Size, Root: 0}
			for it := 0; it < spec.Iters; it++ {
				switch spec.Class {
				case ClassTrain:
					window(r, func() { reduce(r, args) })
					window(r, func() { bcast(r, args) })
				case ClassStencil:
					next := (r.ID + 1) % spec.Ranks
					prev := (r.ID + spec.Ranks - 1) % spec.Ranks
					window(r, func() {
						r.Sendrecv(next, send[r.ID], spec.Size, prev, recv[r.ID], spec.Size)
					})
				case ClassRPC:
					window(r, func() { bcast(r, args) })
					small := args
					small.Count = spec.Size / 2
					if small.Count == 0 {
						small.Count = 1
					}
					window(r, func() { gather(r, small) })
				}
			}
			if r.ID == 0 {
				j.res.MeanLat = totalLat / float64(j.res.Ops)
			}
			end := r.SP.Now()
			if end > j.res.End {
				j.res.End = end
			}
		})
	}
	if err := s.Run(); err != nil {
		return Result{}, err
	}
	res := Result{Makespan: s.Now()}
	for _, j := range jobs {
		j.res.PeakAmbient = j.job.PeakAmbient()
		res.Jobs = append(res.Jobs, *j.res)
	}
	return res, nil
}

// Solo runs one spec alone on an otherwise idle machine (same static
// ambient), for interference comparisons against the co-located run.
func Solo(spec JobSpec, opts Options) (JobResult, error) {
	res, err := Run([]JobSpec{spec}, opts)
	if err != nil {
		return JobResult{}, err
	}
	return res.Jobs[0], nil
}

func maxOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

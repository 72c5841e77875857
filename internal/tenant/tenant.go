// Package tenant models machine-level multi-tenancy: several jobs
// (communicators) sharing one physical node, interfering through the
// kernel resources the paper's contention model is built around.
//
// The mm-lock contention factor γ(c) the paper measures (Fig 5) is a
// shared-kernel-resource curve: its super-linear growth comes from
// lock cache-line bouncing that any co-located locker inflates, not
// just the lockers of one MPI job (Elphinstone et al.'s evaluation of
// coarse-grained kernel locking shows the same shape for unrelated
// workloads). A Host is the machine-wide registry those jobs meet in:
// each job tracks its live page-lock holders and active copy streams,
// and every kernel-assisted transfer evaluates γ over its own mm
// fan-in *plus* the ambient pressure the other jobs contribute at that
// instant — so a communicator tuned on an idle node measurably loses
// its crossover points when a training loop moves in next door.
//
// All counters are plain ints mutated from simulated processes: the
// discrete-event simulator runs exactly one process at a time, so no
// locking is needed and co-scheduled scenarios stay deterministic.
package tenant

import "fmt"

// Host is one physical machine's shared-kernel-resource registry. The
// zero value is unusable; use NewHost.
type Host struct {
	// Static is baseline background pressure: phantom page-lock
	// holders contributed by machine tenants outside the simulation
	// (the `ambient=` knob models the same thing per node; Static
	// applies host-wide, on top of every job's view).
	Static int

	jobs []*Job
}

// NewHost creates an empty machine registry.
func NewHost() *Host { return &Host{} }

// Join registers a new job (one communicator's worth of processes) on
// the machine and returns its handle.
func (h *Host) Join(name string) *Job {
	j := &Job{host: h, name: name}
	h.jobs = append(h.jobs, j)
	return j
}

// Pressure returns the machine-wide live page-lock holder count: the
// sum over every job plus the static background.
func (h *Host) Pressure() int {
	p := h.Static
	for _, j := range h.jobs {
		p += j.holders
	}
	return p
}

// Copiers returns the machine-wide count of active copy streams.
func (h *Host) Copiers() int {
	c := 0
	for _, j := range h.jobs {
		c += j.copiers
	}
	return c
}

// Job is one tenant's handle on the shared machine. All methods are
// nil-safe: a nil Job reports zero ambient pressure and ignores
// enter/exit, so single-tenant runs cost nothing.
type Job struct {
	host    *Host
	name    string
	holders int // live page-lock holders of this job
	copiers int // active copy streams of this job

	peakAmbient int // highest cross-job pressure this job ever observed
}

// Name returns the job's registry name.
func (j *Job) Name() string {
	if j == nil {
		return ""
	}
	return j.name
}

// EnterLock counts one of the job's transfers into the machine-wide
// live lock-holder set (call when a transfer enters its locked page
// loop; pair with ExitLock).
func (j *Job) EnterLock() {
	if j == nil {
		return
	}
	j.holders++
}

// ExitLock removes one live lock holder.
func (j *Job) ExitLock() {
	if j == nil {
		return
	}
	j.holders--
	if j.holders < 0 {
		panic(fmt.Sprintf("tenant: job %q ExitLock without EnterLock", j.name))
	}
}

// Ambient returns the lock pressure this job's transfers see from the
// rest of the machine: every other job's live holders plus the host's
// static background. The job's own holders are excluded — those are
// already in its local mm fan-in.
func (j *Job) Ambient() int {
	if j == nil || j.host == nil {
		return 0
	}
	a := j.host.Pressure() - j.holders
	if a > j.peakAmbient {
		j.peakAmbient = a
	}
	return a
}

// PeakAmbient returns the highest cross-job pressure the job observed
// over its lifetime (diagnostics for interference experiments).
func (j *Job) PeakAmbient() int {
	if j == nil {
		return 0
	}
	return j.peakAmbient
}

// BeginCopy counts one of the job's active copy streams into the
// machine-wide memory-bandwidth sharing set; pair with EndCopy.
func (j *Job) BeginCopy() {
	if j == nil {
		return
	}
	j.copiers++
}

// EndCopy removes one active copy stream.
func (j *Job) EndCopy() {
	if j == nil {
		return
	}
	j.copiers--
	if j.copiers < 0 {
		panic(fmt.Sprintf("tenant: job %q EndCopy without BeginCopy", j.name))
	}
}

// OtherCopiers returns the copy streams the rest of the machine is
// running (the job's own streams excluded — its node already counts
// them).
func (j *Job) OtherCopiers() int {
	if j == nil || j.host == nil {
		return 0
	}
	return j.host.Copiers() - j.copiers
}

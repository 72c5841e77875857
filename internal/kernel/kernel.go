// Package kernel simulates the operating-system substrate the paper's
// collectives run on: a multi-core node with per-process address spaces
// and CMA-style kernel-assisted copy syscalls (process_vm_readv /
// process_vm_writev).
//
// The simulated syscalls follow the phase structure the paper extracted
// with ftrace (Fig 4): syscall entry, permission check, per-page lock
// acquisition on the remote process's mm (the contended step), per-page
// pinning, and the data copy. Lock acquisition cost is inflated by the
// architecture's contention factor γ(c), sampled per chunk of pages from
// the remote mm's in-flight operation count, so overlapping transfers
// contend exactly as the paper's model describes. Concurrent copies share
// the node's aggregate memory bandwidth, and cross-socket copies pay the
// profile's inter-socket penalty.
//
// Transfers move real bytes between simulated address spaces so that the
// collectives built on top can be tested for MPI correctness, not just
// cost. For large benchmark sweeps a Node can be configured dataless
// (CopyData=false), which preserves all timing behaviour but skips
// backing allocations and memcpy.
package kernel

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/fault"
	"camc/internal/liveness"
	"camc/internal/sim"
	"camc/internal/tenant"
	"camc/internal/trace"
)

// Addr is an offset into a simulated process's address space.
type Addr int64

// DefaultChunkPages is the contention-sampling granularity: γ(c) is
// re-sampled every chunk of this many pages.
const DefaultChunkPages = 16

// Node is a simulated shared-memory node.
type Node struct {
	Sim  *sim.Simulation
	Arch *arch.Profile

	// CopyData controls whether transfers move real bytes. Disable for
	// large cost-only sweeps.
	CopyData bool

	// DigestPayload enables the checksum-summary payload mode: every
	// payload-mutating operation folds into per-page FNV digests (see
	// mem.go) whether or not bytes are materialized. With CopyData off
	// this lets a dataless run remain comparable, digest-for-digest,
	// against a materialized run of the same schedule. Set before any
	// NewProcess call.
	DigestPayload bool

	// ChunkPages is the per-chunk page count for contention sampling.
	ChunkPages int

	// PidBase offsets the pids this node assigns to new processes.
	// Multi-node clusters share one simulation and one trace recorder;
	// without distinct bases every node's rank i would get the same pid
	// and their kernel events would interleave on one trace lane.
	PidBase int

	// EmergentLock switches the mm-lock model from the calibrated γ(c)
	// curve to an explicit FIFO mutex held for the lock portion of l per
	// page. Queueing then produces contention *emergently* — but only
	// linearly (γ≈c): the super-linear growth the paper measures comes
	// from spinlock cache-line bouncing, which fair queueing cannot
	// reproduce. Used by the x7 ablation to justify the explicit curve.
	EmergentLock bool

	procs         []*Process
	activeCopiers int // transfers currently in their copy phase

	// ambient is the static co-tenant lock pressure: phantom page-lock
	// holders that co-located jobs outside this communicator hold on
	// the machine's shared kernel path. γ(c) is evaluated over the
	// *sum* of the local mm fan-in and this ambient count, so a node
	// tuned at ambient 0 measurably loses its crossovers under load.
	// Only the calibrated γ curve sees it — the EmergentLock FIFO model
	// queues real lockers and has no phantom to queue.
	ambient int

	// job, when non-nil, registers this node's live lock holders and
	// copy streams with a machine-wide tenant registry, and adds the
	// *other* jobs' live pressure to every γ sample — this is how
	// co-located communicators sharing one simulation interfere.
	job *tenant.Job

	mechanism     Mechanism
	xpmemAttached map[xpmemKey]bool

	rec   *trace.Recorder // optional structured event recorder, nil when disabled
	fault *fault.Plan     // optional fault-injection plan, nil when disabled
	live  *liveness.Board // optional liveness board, nil when detection is off
}

// NewNode creates a node on the given simulation for the given
// architecture. Transfers copy real data until CopyData is cleared.
func NewNode(s *sim.Simulation, a *arch.Profile) *Node {
	return &Node{Sim: s, Arch: a, CopyData: true, ChunkPages: DefaultChunkPages}
}

// SetAmbient sets the static co-tenant lock pressure: n phantom
// page-lock holders added to every γ(c) sample on this node. 0 (the
// default) restores the single-tenant model.
func (n *Node) SetAmbient(holders int) {
	if holders < 0 {
		panic("kernel: negative ambient pressure")
	}
	n.ambient = holders
}

// SetTenant attaches the node to a machine-wide tenant registry: its
// transfers then count themselves into the job's live-holder and
// copy-stream sets and see the other jobs' pressure as ambient. A nil
// job (the default) keeps the node single-tenant.
func (n *Node) SetTenant(j *tenant.Job) { n.job = j }

// Tenant returns the attached tenant job (nil when single-tenant).
func (n *Node) Tenant() *tenant.Job { return n.job }

// ambientPressure is the lock pressure this node's transfers see on
// top of their own mm fan-in: the static knob plus whatever the other
// co-located jobs hold live right now.
func (n *Node) ambientPressure() int { return n.ambient + n.job.Ambient() }

// BeginCopy registers a memory-copy stream (CMA transfer phase or a
// shared-memory bounce-buffer cell copy) against the node's aggregate
// bandwidth; EndCopy unregisters it. The shared-memory transport uses
// these so that two-copy traffic and kernel-assisted traffic share one
// memory system.
func (n *Node) BeginCopy() {
	n.activeCopiers++
	n.job.BeginCopy()
}

// EndCopy unregisters a copy stream started with BeginCopy.
func (n *Node) EndCopy() {
	n.activeCopiers--
	if n.activeCopiers < 0 {
		panic("kernel: EndCopy without BeginCopy")
	}
	n.job.EndCopy()
}

// EffPerByte returns the effective per-byte copy time for a stream whose
// uncongested rate is base (us/byte), given the currently registered
// concurrent copy streams: max(base, active/aggregate-bandwidth).
// Co-located jobs' streams (tenant registry) share the same memory
// system and count toward the divisor.
func (n *Node) EffPerByte(base float64) float64 {
	active := n.activeCopiers + n.job.OtherCopiers()
	if agg := n.Arch.AggBandwidth(); agg > 0 && active > 1 {
		if shared := float64(active) / agg; shared > base {
			return shared
		}
	}
	return base
}

// SetRecorder attaches a structured event recorder to the node and
// binds it to the node's simulation clock. A nil recorder disables
// structured tracing (the default); every emission site is nil-guarded,
// so disabled runs are cost-identical and allocation-free.
func (n *Node) SetRecorder(rec *trace.Recorder) {
	rec.Bind(n.Sim)
	n.rec = rec
}

// Recorder returns the attached structured recorder (nil when tracing
// is disabled).
func (n *Node) Recorder() *trace.Recorder { return n.rec }

// SetFaultPlan attaches a fault-injection plan to the node. A nil plan
// (the default) disables injection entirely; every injection site is
// nil-guarded, so fault-free runs are cost-identical to builds that
// predate the fault layer.
func (n *Node) SetFaultPlan(p *fault.Plan) { n.fault = p }

// FaultPlan returns the attached fault plan (nil when injection is
// disabled).
func (n *Node) FaultPlan() *fault.Plan { return n.fault }

// SetLiveness attaches a liveness board to the node: blocking waits in
// the transports become deadline-guarded and heartbeat-publishing. A nil
// board (the default) keeps every wait unbounded and cost-identical to
// builds that predate the liveness layer.
func (n *Node) SetLiveness(b *liveness.Board) { n.live = b }

// Liveness returns the attached liveness board (nil when failure
// detection is disabled).
func (n *Node) Liveness() *liveness.Board { return n.live }

// Process is a simulated OS process: an address space plus the mm state
// CMA contends on.
type Process struct {
	node   *Node
	pid    int
	uid    int
	socket int

	memLimit Addr
	brk      Addr
	mem      payloadMem // sparse payload backing + per-page digests

	mmInFlight int        // CMA ops currently inside the locked page loop
	mmLock     *sim.Mutex // explicit lock, allocated in EmergentLock mode
}

// NewProcess creates a process with the given address-space capacity,
// placed on the socket that block placement assigns to rank
// len(procs) out of expected total procs. Every process has uid 0, so
// the CMA permission check passes; the permission tests set another.
func (n *Node) NewProcess(memLimit int64) *Process {
	p := &Process{node: n, pid: n.PidBase + 1000 + len(n.procs), memLimit: Addr(memLimit)}
	// The address space is sparse: pages materialize on first touch, so
	// memLimit is purely a virtual bound — a 64k-rank sweep holds only
	// the pages its collective actually writes.
	p.mem.init(int64(n.Arch.PageSize), n.CopyData, n.DigestPayload)
	n.procs = append(n.procs, p)
	return p
}

// PID returns the simulated process id.
func (p *Process) PID() int { return p.pid }

// SetSocket pins the process to a socket.
func (p *Process) SetSocket(s int) {
	if s < 0 || s >= p.node.Arch.Sockets {
		panic(fmt.Sprintf("kernel: socket %d out of range", s))
	}
	p.socket = s
}

// Alloc reserves size bytes, page-aligned, and returns the base address.
func (p *Process) Alloc(size int64) Addr {
	if size < 0 {
		panic("kernel: negative allocation")
	}
	ps := Addr(p.node.Arch.PageSize)
	base := (p.brk + ps - 1) / ps * ps
	if base+Addr(size) > p.memLimit {
		panic(fmt.Sprintf("kernel: pid %d out of memory: brk %d + %d > limit %d", p.pid, base, size, p.memLimit))
	}
	p.brk = base + Addr(size)
	return base
}

// Bytes returns a contiguous writable slice over [a, a+n),
// materializing sparse pages as needed. It panics on a dataless node or
// on an out-of-range access. Writes through the returned slice bypass
// the digest layer — harnesses comparing digests across runs must seed
// via WriteAt/FillAt instead.
func (p *Process) Bytes(a Addr, n int64) []byte {
	if !p.mem.bytes {
		panic("kernel: Bytes on dataless node")
	}
	p.checkAccess(a, n)
	return p.mem.view(int64(a), n)
}

// PayloadTracked reports whether this process maintains per-page op-fold
// digests (the node's DigestPayload mode at creation time).
func (p *Process) PayloadTracked() bool { return p.mem.track }

// Breakdown is the per-phase time decomposition of one CMA transfer,
// mirroring the paper's ftrace categories (Fig 4). Times in microseconds.
type Breakdown struct {
	Syscall   float64
	PermCheck float64
	Lock      float64
	Pin       float64
	Copy      float64
}

// Total returns the sum of all phases.
func (b Breakdown) Total() float64 {
	return b.Syscall + b.PermCheck + b.Lock + b.Pin + b.Copy
}

// PermissionError reports a CMA access denied by the uid check.
type PermissionError struct{ CallerPID, TargetPID int }

func (e *PermissionError) Error() string {
	return fmt.Sprintf("kernel: pid %d may not access pid %d (EPERM)", e.CallerPID, e.TargetPID)
}

// vmTransfer runs one CMA transfer in virtual time.
//
// caller is the process issuing the syscall; remote is the process whose
// mm is locked and whose pages are pinned. For a read, data flows
// remote→caller; for a write, caller→remote. localBytes / remoteBytes
// mirror the iovec-length trick the paper uses for parameter estimation
// (Table III): permission is checked only when remoteBytes > 0, pages
// are locked+pinned for Pages(remoteBytes), and min(localBytes,
// remoteBytes) bytes are copied.
//
// The second return value is the number of payload bytes completed.
// Like the real syscalls, a transfer can return short of the requested
// count with a nil error when the attached fault plan injects a partial
// completion; callers that need the full count resume from the
// completed offset (see VMReadRetry / VMWriteRetry).
func (n *Node) vmTransfer(sp *sim.Proc, caller *Process, callerAddr Addr, remote *Process, remoteAddr Addr, localBytes, remoteBytes int64, read bool) (Breakdown, int64, error) {
	size := min64(localBytes, remoteBytes)
	if n.mechanism == MechXPMEM {
		bd, err := n.xpmemTransfer(sp, caller, callerAddr, remote, remoteAddr, size, read)
		if err != nil {
			return bd, 0, err
		}
		return bd, size, nil
	}
	a := n.Arch

	// Structured tracing: one span per CMA op on the caller's lane,
	// closed by record() with the phase breakdown as args.
	span := trace.NoSpan
	callerLane, remoteLane := 0, 0
	if n.rec != nil {
		callerLane = n.rec.LaneForPid(caller.pid)
		remoteLane = n.rec.LaneForPid(remote.pid)
		name := "vm_read"
		if !read {
			name = "vm_write"
		}
		span = n.rec.Begin(callerLane, trace.CatCMA, name,
			trace.F("peer", float64(remoteLane)),
			trace.F("bytes", float64(size)))
	}

	// Phase 1: syscall entry, plus the descriptor management the
	// module-based mechanisms (KNEM/LiMIC) add on the control path.
	// The rest of the op runs as a stepper the dispatcher advances
	// between its sleeps (see cmaOp).
	op := cmaOps.Get()
	*op = cmaOp{n: n, sp: sp, caller: caller, remote: remote,
		callerAddr: callerAddr, remoteAddr: remoteAddr,
		remoteBytes: remoteBytes, copyBytes: size, read: read,
		span: span, callerLane: callerLane, remoteLane: remoteLane}
	op.bd.Syscall = a.Alpha*a.SyscallFrac + n.mechanism.extraCost()
	sp.SleepSteps(op.bd.Syscall, op)
	bd, copied, err := op.bd, op.copied, op.err
	*op = cmaOp{}
	cmaOps.Put(op)
	return bd, copied, err
}

// cmaOp is one CMA transfer past syscall entry, as a sim.Stepper: each
// Step runs the phase due at the current instant and returns the next
// sleep, so an op costs its process's coroutine one suspension however
// many chunks it walks.
type cmaOp struct {
	n                      *Node
	sp                     *sim.Proc
	caller, remote         *Process
	callerAddr, remoteAddr Addr
	remoteBytes, copyBytes int64
	read                   bool
	span                   trace.SpanID
	callerLane, remoteLane int

	phase              cmaPhase
	copied             int64
	pages, chunk, page int64
	cp, pg, todo       int64 // this chunk's pages, its next locked page, its copy bytes
	lockCost, pinCost  float64
	socketMult, spike  float64
	lockStart          sim.Time
	maxC               int

	bd  Breakdown
	err error
}

// cmaPhase names the sleep a cmaOp is in: the next Step runs what
// follows it.
type cmaPhase uint8

const (
	phEntry    cmaPhase = iota // syscall entry
	phPerm                     // permission check
	phArrive                   // the Yield after joining the in-flight set
	phLockPin                  // a chunk's lock and pin (the pin alone under EmergentLock)
	phCopy                     // a chunk's copy
	phPageWait                 // parked on the EmergentLock mutex
	phPageHeld                 // one page's hold of the EmergentLock mutex
)

// cmaOps is the process-wide free list of op states. Its cap of 1024
// is sim.DefaultFreeListCap: a 256-node cluster cell keeps up to 4096
// ops in flight, and a cap that large removed the few allocations above
// it (perfbench fabric allocs_per_op +0.5% at 1024, ±0 at 4096) but kept
// them all live for every later GC cycle (fabric peak RSS +5.5% at 4096,
// +0.5% at 1024).
var cmaOps sim.FreeList[cmaOp]

// Step runs the phase that follows the op's current sleep.
func (o *cmaOp) Step() sim.Time {
	n, a := o.n, o.n.Arch
	switch o.phase {
	case phEntry:
		if o.remoteBytes <= 0 {
			n.record(o.span, o.bd, 0)
			return sim.StepDone
		}
		// Injected transient failure: the syscall bails right after
		// entry (get_user_pages hitting mm pressure), consuming the
		// entry cost but moving nothing. Callers treat it like EAGAIN
		// and retry.
		if n.fault.Transient(o.caller.pid, o.remote.pid) {
			if n.rec != nil {
				n.rec.Instant(o.callerLane, trace.CatFault, "fault_eagain",
					trace.F("peer", float64(o.remoteLane)))
			}
			n.abortSpan(o.span, o.bd)
			o.err = &TransientError{CallerPID: o.caller.pid, TargetPID: o.remote.pid}
			return sim.StepDone
		}
		// Phase 2: permission check (CMA uses the ptrace access model;
		// the simulation reduces it to a uid match).
		o.bd.PermCheck = a.Alpha * (1 - a.SyscallFrac)
		o.phase = phPerm
		return o.bd.PermCheck
	case phPerm:
		return o.admit()
	case phArrive:
		o.maxC = o.remote.mmInFlight + n.ambientPressure()
		return o.nextChunk()
	case phLockPin:
		return o.lockReleased()
	case phCopy:
		n.EndCopy()
		if o.read {
			movePayload(o.caller, o.callerAddr+Addr(o.copied), o.remote, o.remoteAddr+Addr(o.copied), o.todo)
		} else {
			movePayload(o.remote, o.remoteAddr+Addr(o.copied), o.caller, o.callerAddr+Addr(o.copied), o.todo)
		}
		o.copied += o.todo
		return o.chunkDone()
	case phPageWait:
		// Unlock handed the mutex over: hold it for this page.
		o.phase = phPageHeld
		return o.lockCost * o.spike
	case phPageHeld:
		o.remote.mmLock.Unlock()
		o.pg++
		return o.lockPage()
	}
	panic(fmt.Sprintf("kernel: CMA op in unknown phase %d", o.phase))
}

// admit runs the checks after the permission check's sleep and, if the
// op may proceed, joins the remote mm's in-flight set.
func (o *cmaOp) admit() sim.Time {
	n, a := o.n, o.n.Arch
	if o.caller.uid != o.remote.uid {
		n.record(o.span, o.bd, 0)
		o.err = &PermissionError{CallerPID: o.caller.pid, TargetPID: o.remote.pid}
		return sim.StepDone
	}
	if err := n.checkRange(o.remote, o.remoteAddr, o.remoteBytes); err != nil {
		n.abortSpan(o.span, o.bd)
		o.err = err
		return sim.StepDone
	}
	if o.copyBytes > 0 {
		if err := n.checkRange(o.caller, o.callerAddr, o.copyBytes); err != nil {
			n.abortSpan(o.span, o.bd)
			o.err = err
			return sim.StepDone
		}
	}
	o.pages = int64(a.Pages(int(o.remoteBytes)))
	o.chunk = int64(n.ChunkPages)
	if o.chunk <= 0 {
		o.chunk = DefaultChunkPages
	}
	o.lockCost = a.LockPin * a.LockFrac
	o.pinCost = a.LockPin * (1 - a.LockFrac)
	// Cross-socket copies pay the interconnect penalty on top of
	// whatever rate the shared memory system grants: the QPI/X-bus hop
	// costs extra even when the node is bandwidth-bound.
	o.socketMult = 1.0
	if o.caller.socket != o.remote.socket {
		o.socketMult = a.InterSocketBW
	}

	// Phase 3-5: per-chunk lock, pin, copy. The op counts itself in the
	// remote mm's in-flight set (and the machine-wide tenant set) for
	// the whole chunk walk; γ is re-sampled per chunk so overlapping
	// transfers — same-job and co-tenant alike — see each other.
	o.remote.mmInFlight++
	n.job.EnterLock()
	if n.rec != nil {
		n.rec.Counter(o.remoteLane, trace.CatLock, trace.CounterInFlight, float64(o.remote.mmInFlight))
	}
	// Let transfers arriving at this same instant register before γ is
	// first sampled: without this, simultaneous arrivals would see a
	// staggered ramp that exists only as a scheduling-order artifact.
	o.phase = phArrive
	return 0
}

// nextChunk starts the chunk at o.page, or leaves the in-flight set
// once every page is walked.
func (o *cmaOp) nextChunk() sim.Time {
	if o.page >= o.pages {
		return o.exit()
	}
	n, a := o.n, o.n.Arch
	o.cp = min64(o.chunk, o.pages-o.page)
	// The contention the lock sees is the local mm fan-in plus the
	// ambient pressure of the machine's other tenants at this instant
	// (re-sampled per chunk, like the fan-in itself).
	c := o.remote.mmInFlight + n.ambientPressure()
	if c > o.maxC {
		o.maxC = c
	}
	// mm-lock acquire/release instants are emitted at the chunk
	// granularity — the same granularity γ is sampled at.
	if n.rec != nil {
		n.rec.Instant(o.remoteLane, trace.CatLock, "mm_lock_acquire",
			trace.F("holder", float64(o.callerLane)), trace.F("pages", float64(o.cp)), trace.F("c", float64(c)))
	}
	// Injected mm-lock stall spike: the holder hits a page-table walk
	// or direct-reclaim stall, inflating this chunk's lock cost.
	o.spike = n.fault.LockSpike(o.caller.pid, o.remote.pid)
	if o.spike > 1 && n.rec != nil {
		n.rec.Instant(o.remoteLane, trace.CatFault, "fault_lock_spike",
			trace.F("holder", float64(o.callerLane)), trace.F("factor", o.spike))
	}
	if n.EmergentLock {
		// Explicit FIFO mm lock: acquire once per page, hold for the
		// lock portion of l. Wait time is emergent queueing delay.
		if o.remote.mmLock == nil {
			o.remote.mmLock = sim.NewMutex(n.Sim)
		}
		if n.rec != nil {
			depth := o.remote.mmLock.Waiters()
			if o.remote.mmLock.Locked() {
				depth++
			}
			n.rec.Counter(o.remoteLane, trace.CatLock, trace.CounterQueue, float64(depth))
		}
		o.lockStart = n.Sim.Now()
		o.pg = 0
		return o.lockPage()
	}
	gamma := a.Gamma(c)
	if n.rec != nil {
		n.rec.Instant(o.callerLane, trace.CatCMA, "gamma",
			trace.F("gamma", gamma), trace.F("c", float64(c)), trace.F("page", float64(o.page)))
	}
	lt := float64(o.cp) * o.lockCost * gamma * o.spike
	pt := float64(o.cp) * o.pinCost
	o.bd.Lock += lt
	o.bd.Pin += pt
	o.phase = phLockPin
	return lt + pt
}

// lockPage takes the EmergentLock mutex for the chunk's next page, or
// pins the chunk once every page has held it.
func (o *cmaOp) lockPage() sim.Time {
	if o.pg == o.cp {
		o.bd.Lock += o.n.Sim.Now() - o.lockStart
		pt := float64(o.cp) * o.pinCost
		o.bd.Pin += pt
		o.phase = phLockPin
		return pt
	}
	if !o.remote.mmLock.Acquire(o.sp) {
		o.phase = phPageWait
		return sim.StepPark
	}
	o.phase = phPageHeld
	return o.lockCost * o.spike
}

// lockReleased releases the chunk's mm lock and copies the bytes that
// fall inside the chunk's remote pages.
func (o *cmaOp) lockReleased() sim.Time {
	n := o.n
	if n.rec != nil {
		n.rec.Instant(o.remoteLane, trace.CatLock, "mm_lock_release",
			trace.F("holder", float64(o.callerLane)))
	}
	pageSize := int64(n.Arch.PageSize)
	chunkBytes := o.cp * pageSize
	if o.page*pageSize+chunkBytes > o.remoteBytes {
		chunkBytes = o.remoteBytes - o.page*pageSize
	}
	o.todo = min64(chunkBytes, o.copyBytes-o.copied)
	if o.todo <= 0 {
		return o.chunkDone()
	}
	n.BeginCopy()
	ct := float64(o.todo) * n.EffPerByte(n.Arch.Beta()) * o.socketMult
	o.bd.Copy += ct
	o.phase = phCopy
	return ct
}

// chunkDone moves on to the next chunk, unless an injected short
// completion ends the syscall here (memory pressure truncating the
// iovec walk). The cut only fires while chunks remain, so injection
// never turns an already-complete transfer into a short one.
func (o *cmaOp) chunkDone() sim.Time {
	n := o.n
	if o.page+o.chunk < o.pages && n.fault.PartialCut(o.caller.pid, o.remote.pid) {
		if n.rec != nil {
			n.rec.Instant(o.callerLane, trace.CatFault, "fault_partial",
				trace.F("peer", float64(o.remoteLane)), trace.F("completed", float64(o.copied)))
		}
		return o.exit()
	}
	o.page += o.chunk
	return o.nextChunk()
}

// exit leaves the remote mm's in-flight set and closes the op's span.
func (o *cmaOp) exit() sim.Time {
	n := o.n
	o.remote.mmInFlight--
	n.job.ExitLock()
	if n.rec != nil {
		n.rec.Counter(o.remoteLane, trace.CatLock, trace.CounterInFlight, float64(o.remote.mmInFlight))
	}
	n.record(o.span, o.bd, o.maxC)
	return sim.StepDone
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (n *Node) checkRange(p *Process, a Addr, size int64) error {
	if a < 0 || size < 0 || a+Addr(size) > p.memLimit {
		return fmt.Errorf("kernel: pid %d range [%d,%d) out of address space", p.pid, a, a+Addr(size))
	}
	return nil
}

// record finalizes one kernel-assisted op: it closes the op's recorder
// span with the phase breakdown, the ftrace-style accounting (Fig 4)
// that trace.SummarizeCMA totals.
func (n *Node) record(span trace.SpanID, bd Breakdown, maxC int) {
	if n.rec != nil {
		n.rec.End(span,
			trace.F("syscall", bd.Syscall), trace.F("perm", bd.PermCheck),
			trace.F("lock", bd.Lock), trace.F("pin", bd.Pin),
			trace.F("copy", bd.Copy), trace.F("maxc", float64(maxC)))
	}
}

// abortSpan closes an op span on an error path, marked aborted so that
// trace.SummarizeCMA does not count it (address-range violations).
func (n *Node) abortSpan(span trace.SpanID, bd Breakdown) {
	if n.rec != nil {
		n.rec.End(span,
			trace.F("syscall", bd.Syscall), trace.F("perm", bd.PermCheck),
			trace.F("lock", bd.Lock), trace.F("pin", bd.Pin),
			trace.F("copy", bd.Copy), trace.F("aborted", 1))
	}
}

// VMRead is process_vm_readv: the caller copies size bytes from src's
// address space into its own. src's mm is the contended one. Under an
// active fault plan the transfer can complete short or fail
// transiently; callers that need the full count use VMReadRetry.
func (caller *Process) VMRead(sp *sim.Proc, dst Addr, src *Process, srcAddr Addr, size int64) error {
	_, _, err := caller.node.vmTransfer(sp, caller, dst, src, srcAddr, size, size, true)
	return err
}

// VMWrite is process_vm_writev: the caller copies size bytes from its own
// address space into dst's. dst's mm is the contended one. Like VMRead,
// fault-plan short completions are surfaced only via VMWriteRetry.
func (caller *Process) VMWrite(sp *sim.Proc, src Addr, dst *Process, dstAddr Addr, size int64) error {
	_, _, err := caller.node.vmTransfer(sp, caller, src, dst, dstAddr, size, size, false)
	return err
}

// VMReadPartial exposes the iovec-length trick of Table III: localBytes
// and remoteBytes select which syscall phases execute (see vmTransfer).
// It returns the per-phase breakdown.
func (caller *Process) VMReadPartial(sp *sim.Proc, dst Addr, src *Process, srcAddr Addr, localBytes, remoteBytes int64) (Breakdown, error) {
	bd, _, err := caller.node.vmTransfer(sp, caller, dst, src, srcAddr, localBytes, remoteBytes, true)
	return bd, err
}

// Combine models an elementwise reduction combine dst[i] += src[i]
// within one address space (the local-compute step of Reduce trees).
// The cost is charged at the memcpy rate: a streaming read-read-write
// over size bytes.
func (p *Process) Combine(sp *sim.Proc, dst, src Addr, size int64) {
	if size <= 0 {
		return
	}
	if err := p.node.checkRange(p, dst, size); err != nil {
		panic(err)
	}
	if err := p.node.checkRange(p, src, size); err != nil {
		panic(err)
	}
	sp.Sleep(float64(size) * p.node.Arch.MemCopyBeta())
	if p.mem.bytes || p.mem.track {
		// The combine folds before the bytes mutate so the digest sees
		// the pre-combine source, matching the fold a dataless run makes.
		var sum uint64
		if p.mem.track {
			sum = p.mem.rangeSum(int64(src), size)
		}
		if p.mem.bytes {
			// Source view first: the destination view call may merge
			// extents, which would strand writes through an older slice.
			s := p.mem.view(int64(src), size)
			d := p.mem.view(int64(dst), size)
			for i := range d {
				d[i] += s[i]
			}
		}
		if p.mem.track {
			p.mem.applyOp(int64(dst), size, opCombine, sum)
		}
	}
}

// LocalCopy models an in-process memcpy of size bytes (used for the
// root's own block in Scatter/Gather when MPI_IN_PLACE is not used).
func (p *Process) LocalCopy(sp *sim.Proc, dst, src Addr, size int64) {
	if size <= 0 {
		return
	}
	if err := p.node.checkRange(p, dst, size); err != nil {
		panic(err)
	}
	if err := p.node.checkRange(p, src, size); err != nil {
		panic(err)
	}
	sp.Sleep(float64(size) * p.node.Arch.MemCopyBeta())
	movePayload(p, dst, p, src, size)
}

// Blocks is a run of in-process block copies, each costed and moved
// as LocalCopy does, as a sim.Stepper: the queued blocks copy as one
// stepped run, each Step moving the block whose copy sleep just ended
// and starting the next, so a contended run costs the process's
// coroutine one suspension, not one per block. A Blocks comes from
// Process.Blocks and goes back to a process-wide free list when Run
// ends it, so a run allocates nothing in steady state.
type Blocks struct {
	p      *Process
	sp     *sim.Proc
	list   [blockBatch]block
	n      int  // blocks queued
	i      int  // the block copying, or the next to start
	moving bool // list[i]'s copy sleep is under way
	err    error
}

// blockBatch is how many blocks a Blocks run queues: Add copies a full
// batch before it queues more, so a run's state has one small fixed
// size however many blocks it copies. Every rank of a Bruck alltoall
// holds a run at the same time: an unbounded list cost each of them a
// p-block list, O(p²) live bytes per node (perfbench node peak RSS
// +8.6%), while a batch of 16 costs a p-block loop ⌈p/16⌉ suspensions
// instead of one and keeps a run's state under 500 bytes.
const blockBatch = 16

// block is one queued block: size bytes from src to dst.
type block struct {
	dst, src Addr
	size     int64
}

var copyRuns sim.FreeList[Blocks]

// Blocks returns an empty run of block copies in p for the process
// sp runs.
func (p *Process) Blocks(sp *sim.Proc) *Blocks {
	b := copyRuns.Get()
	b.p, b.sp = p, sp
	return b
}

// Add queues a size-byte copy from src to dst, first copying the queued
// blocks if the batch is full. A block of size ≤ 0 copies nothing and
// is not checked, as with LocalCopy.
func (b *Blocks) Add(dst, src Addr, size int64) {
	if size <= 0 {
		return
	}
	if b.n == blockBatch {
		b.copyQueued()
	}
	b.list[b.n] = block{dst: dst, src: src, size: size}
	b.n++
}

// Run copies the blocks still queued and ends the run: b goes back to
// the free list and must not be used again. The blocks of a run copy
// at the instants, with the range checks, panics and payload moves, of
// a loop of LocalCopy calls over them.
func (b *Blocks) Run() {
	b.copyQueued()
	b.release()
}

// copyQueued copies the queued blocks as one stepped run, then raises
// a range error as LocalCopy would.
func (b *Blocks) copyQueued() {
	b.i = 0
	b.sp.SleepSteps(b.Step(), b)
	b.n = 0
	if err := b.err; err != nil {
		b.release()
		panic(err)
	}
}

func (b *Blocks) release() {
	b.p, b.sp, b.n, b.err = nil, nil, 0, nil
	copyRuns.Put(b)
}

// Step finishes the block whose copy sleep just ended, then range-checks
// the next block and returns its copy time. A range error ends the run.
func (b *Blocks) Step() sim.Time {
	p := b.p
	if b.moving {
		k := &b.list[b.i]
		movePayload(p, k.dst, p, k.src, k.size)
		b.moving = false
		b.i++
	}
	if b.i == b.n {
		return sim.StepDone
	}
	k := &b.list[b.i]
	if b.err = p.node.checkRange(p, k.dst, k.size); b.err != nil {
		return sim.StepDone
	}
	if b.err = p.node.checkRange(p, k.src, k.size); b.err != nil {
		return sim.StepDone
	}
	b.moving = true
	return float64(k.size) * p.node.Arch.MemCopyBeta()
}

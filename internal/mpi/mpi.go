// Package mpi provides the miniature MPI runtime the collectives run on:
// a communicator of simulated processes (one per core, block-placed
// across sockets), point-to-point messaging with the standard two
// protocols — eager through shared memory for small messages, and
// rendezvous (RTS/CTS control packets plus a CMA read) for large ones —
// and the measurement harness used by every experiment.
//
// As in the paper's design (§III), every rank learns its peers' PIDs at
// initialization, so native CMA collectives built on this runtime only
// exchange buffer addresses (through shared memory) per operation.
package mpi

import (
	"fmt"
	"slices"

	"camc/internal/arch"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/shm"
	"camc/internal/sim"
	"camc/internal/trace"
)

// DefaultRendezvousThreshold is the eager/rendezvous switch point in
// bytes: the paper places the kernel-assisted advantage at >= 16 KiB.
const DefaultRendezvousThreshold = 16 << 10

// Config describes one intra-node MPI job.
type Config struct {
	Arch  *arch.Profile
	Procs int // ranks; defaults to Arch.DefaultProcs

	// CopyData enables real data movement (tests); disable for large
	// cost-only sweeps (benchmarks).
	CopyData bool

	// Sparse enables the checksum-summary payload mode: every
	// payload-mutating operation folds into per-page FNV digests
	// (kernel.Process.MemDigest), whether or not CopyData is on. A
	// dataless Sparse run stays digest-comparable against a materialized
	// run of the same schedule — see internal/check's sparse cross-check.
	Sparse bool

	// Sim, when non-nil, is an existing simulation to build on instead
	// of allocating a fresh one. The caller must pass a freshly created
	// or Reset simulation; measure's sweep loop uses this to recycle the
	// simulator (and its event-heap backing and Proc free list) across
	// iterations.
	Sim *sim.Simulation

	// MemPerProc is each rank's simulated address-space size in bytes.
	// Defaults to 1 GiB (dataless) — set small when CopyData is on.
	MemPerProc int64

	// RendezvousThreshold overrides the eager/rendezvous switch point.
	RendezvousThreshold int64

	// ChunkPages overrides the kernel contention-sampling granularity.
	ChunkPages int

	// Mechanism selects the kernel-assist facility (CMA by default; see
	// kernel.Mechanism for KNEM/LiMIC/XPMEM).
	Mechanism kernel.Mechanism

	// Ambient is the static co-tenant lock pressure: phantom page-lock
	// holders that co-located jobs hold on the machine's shared kernel
	// path, added to every γ(c) sample (kernel.Node.SetAmbient). 0
	// keeps the single-tenant model.
	Ambient int

	// Fault, when non-nil and active, attaches a deterministic
	// fault-injection plan to the node: CMA ops can fail transiently or
	// complete short (absorbed by bounded retries with backoff, then a
	// per-peer fallback to the two-copy path), shm cells can stall, and
	// ranks can straggle. Payloads are never corrupted.
	Fault *fault.Config

	// Liveness, when non-nil, attaches a failure-detection board: every
	// blocking primitive becomes deadline-guarded (a dead peer yields a
	// *liveness.PeerDeadError instead of a hang), heartbeats are
	// published in the shm segment, and Protected/Agree/Shrink become
	// usable for ULFM-style recovery. Required for the `kill` fault
	// class to fail cleanly — without it, a killed rank turns into a
	// simulator deadlock report at drain time.
	Liveness *liveness.Config
}

func (c Config) withDefaults() Config {
	if c.Procs == 0 {
		c.Procs = c.Arch.DefaultProcs
	}
	if c.MemPerProc == 0 {
		c.MemPerProc = 1 << 30
	}
	if c.RendezvousThreshold == 0 {
		c.RendezvousThreshold = DefaultRendezvousThreshold
	}
	return c
}

// Comm is an intra-node communicator.
type Comm struct {
	Node  *kernel.Node
	Shm   *shm.Transport
	Sim   *sim.Simulation
	cfg   Config
	ranks []*Rank

	// parentIDs maps this communicator's rank IDs to the pre-shrink
	// communicator's (identity for a communicator built by New).
	parentIDs []int

	// boardIDs maps this communicator's rank IDs to liveness-board
	// slots (nil = identity). A cluster sets every node's board to a
	// world-sized view indexed by world rank, so local ranks beat and
	// mark by world ID and remote deaths revoke local waits.
	boardIDs []int

	// armedKills holds explicitly targeted kills (rank -> operation
	// index), applied in Start on top of the fault plan's seeded kill
	// points. Unlike the plan, an armed kill may target local rank 0 —
	// the cluster chaos experiments need to kill node leaders.
	armedKills map[int]int

	// shrunk/shrunkFailed implement the single-builder Shrink protocol:
	// the first survivor constructs the new communicator, later
	// survivors adopt it after checking they agreed on the same failures.
	shrunk       *Comm
	shrunkFailed []int
}

// Size returns the number of ranks.
func (c *Comm) Size() int { return len(c.ranks) }

// AttachTrace attaches a structured-event recorder to the communicator:
// it binds the recorder to the node (so kernel-level CMA events are
// captured too) and registers one trace lane per rank, keyed by the
// rank's simulated OS pid. Attach before Start; a nil recorder is a
// no-op (tracing stays disabled).
func (c *Comm) AttachTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	c.Node.SetRecorder(rec)
	for _, r := range c.ranks {
		rec.RegisterLane(r.ID, fmt.Sprintf("rank %d", r.ID), r.OS.PID())
	}
}

// Tracer returns the attached recorder (nil when tracing is disabled;
// all recorder methods are nil-safe).
func (c *Comm) Tracer() *trace.Recorder { return c.Node.Recorder() }

// FaultPlan returns the node's fault-injection plan (nil when fault
// injection is disabled; all plan methods are nil-safe).
func (c *Comm) FaultPlan() *fault.Plan { return c.Node.FaultPlan() }

// Liveness returns the node's liveness board (nil when failure
// detection is disabled).
func (c *Comm) Liveness() *liveness.Board { return c.Node.Liveness() }

// ParentID maps rank i of this communicator to its rank in the
// pre-shrink communicator (identity for a communicator built by New).
func (c *Comm) ParentID(i int) int {
	if c.parentIDs == nil {
		return i
	}
	return c.parentIDs[i]
}

// SetBoardIDs maps this communicator's rank IDs to liveness-board
// slots (and propagates the mapping to the shm transport, whose waits
// drive the board). Call before Start; nil restores the identity
// mapping used by plain single-node communicators.
func (c *Comm) SetBoardIDs(ids []int) {
	if ids != nil && len(ids) != len(c.ranks) {
		panic(fmt.Sprintf("mpi: SetBoardIDs with %d ids for %d ranks", len(ids), len(c.ranks)))
	}
	c.boardIDs = ids
	c.Shm.SetBoardIDs(ids)
}

// BoardID maps rank i to its liveness-board slot (identity when no
// mapping is set).
func (c *Comm) BoardID(i int) int {
	if c.boardIDs == nil {
		return i
	}
	return c.boardIDs[i]
}

// ArmKill schedules an explicit seeded death: rank dies at its op-th
// checkpointed operation, exactly like a fault-plan kill point but
// targeted (and allowed to hit local rank 0, which probabilistic plans
// exempt so a run always has survivors). Call before Start.
func (c *Comm) ArmKill(rank, op int) {
	if c.armedKills == nil {
		c.armedKills = make(map[int]int)
	}
	c.armedKills[rank] = op
}

// RankFromParent returns the rank that was parentID before the shrink,
// or -1 if that rank is not part of this communicator (it died).
func (c *Comm) RankFromParent(parentID int) int {
	for i := range c.ranks {
		if c.ParentID(i) == parentID {
			return i
		}
	}
	return -1
}

// Rank returns rank i's handle.
func (c *Comm) Rank(i int) *Rank { return c.ranks[i] }

// Rank is one MPI process: its simulated OS process plus its simulation
// coroutine.
type Rank struct {
	Comm *Comm
	ID   int
	SP   *sim.Proc
	OS   *kernel.Process

	// cmaDead marks peers against which the kernel assist exhausted its
	// retry budget; further transfers to them take the degraded two-copy
	// path. Allocated lazily on the first fallback.
	cmaDead []bool

	// killPoint is the operation index at which this rank dies under the
	// fault plan's kill class (-1 = never); ops counts checkpointed
	// operations toward it.
	killPoint int
	ops       int

	// agreeRound numbers this rank's agreement rounds; rounds stay in
	// lockstep because every survivor runs the same protected sequence.
	agreeRound int
}

// Size returns the communicator size.
func (r *Rank) Size() int { return r.Comm.Size() }

// Tracer returns the recorder attached to this rank's communicator
// (nil when tracing is disabled).
func (r *Rank) Tracer() *trace.Recorder { return r.Comm.Tracer() }

// Lane returns this rank's trace lane. Lanes are registered by OS pid
// at AttachTrace time, so a rank keeps its lane across a communicator
// Shrink even though its rank ID is renumbered — all events of one
// simulated process (MPI, collective, and kernel CMA alike) land on one
// lane. Without a recorder the rank ID is returned (nothing records).
func (r *Rank) Lane() int {
	if rec := r.Tracer(); rec != nil {
		return rec.LaneForPid(r.OS.PID())
	}
	return r.ID
}

// Peer returns the OS process behind rank i (the PID table every rank
// builds at init).
func (r *Rank) Peer(i int) *kernel.Process { return r.Comm.ranks[i].OS }

// Alloc reserves size bytes in this rank's address space.
func (r *Rank) Alloc(size int64) kernel.Addr { return r.OS.Alloc(size) }

// Result reports a completed run.
type Result struct {
	Time   float64 // virtual time at which the last rank finished, us
	Events uint64  // simulator dispatches (diagnostics)
}

// New builds a communicator without running anything; used by harnesses
// that need to allocate buffers before spawning rank bodies. Most callers
// want Run.
func New(cfg Config) *Comm {
	cfg = cfg.withDefaults()
	s := cfg.Sim
	if s == nil {
		s = sim.New()
	}
	node := kernel.NewNode(s, cfg.Arch)
	node.CopyData = cfg.CopyData
	node.DigestPayload = cfg.Sparse
	node.SetMechanism(cfg.Mechanism)
	node.SetAmbient(cfg.Ambient)
	if cfg.ChunkPages != 0 {
		node.ChunkPages = cfg.ChunkPages
	}
	if cfg.Fault != nil && cfg.Fault.Active() {
		node.SetFaultPlan(fault.New(*cfg.Fault))
	}
	if cfg.Liveness != nil {
		node.SetLiveness(liveness.NewBoard(s, cfg.Procs, *cfg.Liveness))
	}
	c := &Comm{Node: node, Sim: s, cfg: cfg}
	c.Shm = shm.New(node, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		os := node.NewProcess(cfg.MemPerProc)
		os.SetSocket(cfg.Arch.RankSocket(i, cfg.Procs))
		c.ranks = append(c.ranks, &Rank{Comm: c, ID: i, OS: os})
	}
	return c
}

// NewOnNode builds a communicator over an existing simulated node (the
// multi-node cluster creates several nodes on one shared simulation and
// needs a communicator per node). Runs inherit the node's CopyData
// setting; MemPerProc applies to the ranks' address spaces.
func NewOnNode(node *kernel.Node, procs int, memPerProc int64) *Comm {
	cfg := Config{
		Arch:       node.Arch,
		Procs:      procs,
		CopyData:   node.CopyData,
		MemPerProc: memPerProc,
	}.withDefaults()
	c := &Comm{Node: node, Sim: node.Sim, cfg: cfg}
	c.Shm = shm.New(node, cfg.Procs)
	for i := 0; i < cfg.Procs; i++ {
		os := node.NewProcess(cfg.MemPerProc)
		os.SetSocket(cfg.Arch.RankSocket(i, cfg.Procs))
		c.ranks = append(c.ranks, &Rank{Comm: c, ID: i, OS: os})
	}
	return c
}

// Start spawns one simulation process per rank running body. Each rank
// learns its kill point from the fault plan here; a rank that reaches it
// mid-collective announces its death on the liveness board and exits —
// the liveness.Killed panic is recovered at this boundary so the
// simulated process dies cleanly instead of crashing the simulation.
func (c *Comm) Start(body func(r *Rank)) {
	for _, r := range c.ranks {
		r := r
		r.killPoint = c.FaultPlan().KillPoint(r.ID)
		if op, ok := c.armedKills[r.ID]; ok {
			r.killPoint = op
		}
		c.Sim.Spawn(fmt.Sprintf("rank%d", r.ID), func(p *sim.Proc) {
			r.SP = p
			defer func() {
				if v := recover(); v != nil {
					if _, ok := v.(liveness.Killed); ok {
						return // permanent death: the process just exits
					}
					panic(v)
				}
			}()
			body(r)
		})
	}
}

// Run builds a communicator, runs body on every rank, and returns the
// completion time.
func Run(cfg Config, body func(r *Rank)) (Result, error) {
	c := New(cfg)
	c.Start(body)
	if err := c.Sim.Run(); err != nil {
		return Result{}, err
	}
	return Result{Time: c.Sim.Now(), Events: c.Sim.EventsProcessed()}, nil
}

// killCheck is the seeded-death checkpoint at the top of every blocking
// primitive: when this rank's operation counter reaches its kill point,
// the rank publishes its death on the liveness board and exits via a
// liveness.Killed panic (recovered in Start). Unarmed ranks pay one
// predicted-not-taken branch.
// KillCheck exposes the seeded-death checkpoint to transports layered
// above the node communicator: the cluster fabric counts NetSend and
// NetRecv as checkpointed operations too, so a rank whose schedule is
// all network traffic (a flat-design leaf, a two-level leader) can
// still be killed at its operation index. The checkpoint sits at
// operation entry — a death never interrupts an in-flight transfer.
func (r *Rank) KillCheck() { r.killCheck() }

func (r *Rank) killCheck() {
	r.exitIfExcluded()
	if r.killPoint <= 0 {
		return
	}
	r.ops++
	if r.ops >= r.killPoint {
		r.killPoint = -1 // fire once
		r.Comm.FaultPlan().CountKill()
		if rec := r.Tracer(); rec != nil {
			rec.Instant(r.Lane(), trace.CatLiveness, "rank_killed",
				trace.F("op", float64(r.ops)))
		}
		if b := r.Comm.Liveness(); b != nil {
			b.MarkDead(r.Comm.BoardID(r.ID))
		}
		panic(liveness.Killed{Rank: r.ID})
	}
}

// exitIfExcluded enforces fail-stop on a rank the survivors agreed dead
// while it was in fact still running — a rank busy for a full deadline
// inside a long kernel copy publishes no heartbeat and can be judged
// stale. Once the communicator has shrunk without it, the rank must not
// touch the node's liveness board or transport again: the board now
// belongs to the survivor communicator and is numbered for it. The
// excluded rank exits as if killed, like a falsely suspected process a
// fail-stop detector terminates. Before any shrink the failed set is
// empty and this is a no-op.
func (r *Rank) exitIfExcluded() {
	for _, f := range r.Comm.shrunkFailed {
		if f == r.ID {
			if rec := r.Tracer(); rec != nil {
				rec.Instant(r.Lane(), trace.CatLiveness, "rank_excluded")
			}
			panic(liveness.Killed{Rank: r.ID})
		}
	}
}

// Protected runs one collective (or any block of communicator calls)
// and converts a dead-peer abort into an ordinary error: the transport
// layers signal a dead peer by panicking with *liveness.PeerDeadError,
// and this boundary recovers exactly that type. The error is this
// rank's *local* view; call Agree to turn it into the communicator-wide
// coherent verdict. Kill panics and genuine bugs pass through.
func (r *Rank) Protected(f func()) (err error) {
	defer func() {
		if v := recover(); v != nil {
			if pd, ok := v.(*liveness.PeerDeadError); ok {
				err = pd
				return
			}
			panic(v)
		}
	}()
	f()
	return nil
}

// Agree runs the coherent-error agreement round over the liveness
// board: every survivor contributes its local verdict (nil or a
// *liveness.PeerDeadError) and every survivor returns the same answer —
// nil only if no rank observed or suffered a failure, otherwise a
// *liveness.PeerDeadError with the identical agreed failed-rank set.
// Survivors must agree on that set before shrinking, or they would
// build incompatible successor communicators. Without a liveness board
// the local error is returned unchanged.
func (r *Rank) Agree(localErr error) error {
	b := r.Comm.Liveness()
	if b == nil {
		return localErr
	}
	var local []int
	if pd, ok := localErr.(*liveness.PeerDeadError); ok {
		local = pd.Ranks
	} else if localErr != nil {
		return localErr // not a liveness failure: nothing to agree about
	}
	r.exitIfExcluded()
	round := r.agreeRound
	r.agreeRound++
	rec := r.Tracer()
	span := trace.NoSpan
	if rec != nil {
		span = rec.Begin(r.Lane(), trace.CatLiveness, "agree",
			trace.F("round", float64(round)))
	}
	set := b.Agree(r.SP, r.ID, round, local)
	if rec != nil {
		rec.End(span, trace.F("failed", float64(len(set))))
	}
	if len(set) == 0 {
		return nil
	}
	return liveness.NewPeerDeadError(set)
}

// Shrink builds the survivor communicator after an agreed failure and
// returns this rank's handle in it. Every survivor must call Shrink
// with the *agreed* failed set (from Agree); the first caller
// constructs the new communicator — fresh shared-memory transport,
// fresh right-sized liveness board, contiguous re-numbered ranks that
// keep their OS processes, sockets and degraded-pair state — and the
// rest adopt it. Before returning, the survivors re-run the one-time
// address (PID) exchange over the new transport, so the new
// communicator is proven end-to-end exactly like a fresh one.
//
// Shrink does not disarm the fault plan's kill class: call
// FaultPlan().Revive() first if the survivors' re-run must not suffer
// fresh seeded deaths.
func (r *Rank) Shrink(failed []int) *Rank {
	c := r.Comm
	if c.shrunk == nil {
		c.buildShrunk(failed)
	} else if !slices.Equal(c.shrunkFailed, failed) {
		panic(fmt.Sprintf("mpi: Shrink disagreement: rank %d shrinks on %v, communicator shrunk on %v (agreement missing?)",
			r.ID, failed, c.shrunkFailed))
	}
	nc := c.shrunk
	nr := nc.ranks[nc.RankFromParent(r.ID)]
	nr.SP = r.SP
	if rec := r.Tracer(); rec != nil {
		rec.Instant(r.Lane(), trace.CatLiveness, "shrink",
			trace.F("survivors", float64(nc.Size())), trace.F("new_rank", float64(nr.ID)))
	}
	// One-time address exchange on the surviving set: every rank
	// publishes its PID and checks the gathered table against the new
	// rank table, driving the first traffic through the new transport.
	pids := nr.Allgather64(int64(nr.OS.PID()))
	for i, pid := range pids {
		if int(pid) != nc.ranks[i].OS.PID() {
			panic(fmt.Sprintf("mpi: post-shrink address exchange mismatch at rank %d: got pid %d, want %d",
				i, pid, nc.ranks[i].OS.PID()))
		}
	}
	return nr
}

// buildShrunk constructs the survivor communicator (first Shrink caller
// only). The node-level liveness board is replaced by a fresh one sized
// to the survivor count — the old board's rank numbering dies with the
// old communicator.
func (c *Comm) buildShrunk(failed []int) {
	dead := make(map[int]bool, len(failed))
	for _, f := range failed {
		dead[f] = true
	}
	var alive []int
	for i := range c.ranks {
		if !dead[i] {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		panic("mpi: Shrink with no survivors")
	}
	nc := &Comm{Node: c.Node, Sim: c.Sim, cfg: c.cfg}
	nc.cfg.Procs = len(alive)
	nc.Shm = shm.New(c.Node, len(alive))
	if rec := c.Tracer(); rec != nil {
		// The new transport numbers ranks from 0, but each survivor keeps
		// the trace lane its pid was registered under.
		lanes := make([]int, len(alive))
		for newID, oldID := range alive {
			lanes[newID] = rec.LaneForPid(c.ranks[oldID].OS.PID())
		}
		nc.Shm.SetLanes(lanes)
	}
	if b := c.Node.Liveness(); b != nil && c.boardIDs == nil {
		// Single-node: the board's rank numbering dies with the old
		// communicator, so replace it with a right-sized fresh one. In a
		// cluster (boardIDs set) the board is the node's world-sized view
		// and slots are original world ranks, which survive the shrink —
		// the cluster layer installs the fresh view itself, once per node.
		c.Node.SetLiveness(liveness.NewBoard(c.Sim, len(alive), b.Config()))
	}
	if c.boardIDs != nil {
		nc.boardIDs = make([]int, len(alive))
		for newID, oldID := range alive {
			nc.boardIDs[newID] = c.boardIDs[oldID]
		}
		nc.Shm.SetBoardIDs(nc.boardIDs)
	}
	plan := c.FaultPlan()
	for newID, oldID := range alive {
		old := c.ranks[oldID]
		nr := &Rank{Comm: nc, ID: newID, OS: old.OS, killPoint: plan.KillPoint(newID)}
		if c.boardIDs != nil {
			// Cluster re-runs happen after Revive; armed kills fired once.
			nr.killPoint = -1
		}
		if old.cmaDead != nil {
			// Degraded pairs stay degraded: the mm didn't heal because the
			// communicator was renumbered.
			nr.cmaDead = make([]bool, len(alive))
			for newP, oldP := range alive {
				nr.cmaDead[newP] = old.cmaDead[oldP]
			}
		}
		nc.ranks = append(nc.ranks, nr)
		nc.parentIDs = append(nc.parentIDs, oldID)
	}
	c.shrunk = nc
	c.shrunkFailed = append([]int(nil), failed...)
}

// Barrier synchronizes all ranks (dissemination barrier over shared
// memory).
func (r *Rank) Barrier() {
	r.killCheck()
	span := trace.NoSpan
	if rec := r.Tracer(); rec != nil {
		span = rec.Begin(r.Lane(), trace.CatMPI, "barrier")
	}
	r.Comm.Shm.Barrier(r.SP, r.ID)
	r.Tracer().End(span)
}

// pt2pt tags: the two protocols share the per-pair FIFO, so fixed tags
// keep the handshakes self-describing.
const (
	tagEager = 100
	tagRTS   = 101
	tagFIN   = 102
)

// matchCost is the per-message MPI point-to-point envelope overhead:
// posting/matching against the receive and unexpected-message queues.
// The native CMA collectives skip the point-to-point stack entirely
// (addresses ride raw shared-memory slots), which is part of the
// advantage the paper's Fig 9 isolates.
const matchCost = 0.3

// Send transmits size bytes at addr to rank dst. Messages below the
// rendezvous threshold go eagerly through shared memory (two copies);
// larger ones use the rendezvous protocol: the sender posts an RTS
// carrying its buffer address, the receiver pulls the payload with a
// single CMA read, then posts a FIN.
func (r *Rank) Send(dst int, addr kernel.Addr, size int64) {
	r.killCheck()
	c := r.Comm
	span := trace.NoSpan
	rec := r.Tracer()
	rndv := size >= c.cfg.RendezvousThreshold
	if rec != nil {
		name := "send_eager"
		if rndv {
			name = "send_rndv"
		}
		span = rec.Begin(r.Lane(), trace.CatMPI, name,
			trace.F("peer", float64(dst)), trace.F("bytes", float64(size)))
	}
	r.SP.Sleep(matchCost)
	if !rndv {
		c.Shm.Send(r.SP, r.ID, dst, tagEager, r.OS, addr, size)
		rec.End(span)
		return
	}
	c.Shm.SendCtl(r.SP, r.ID, dst, tagRTS, int64(addr))
	c.Shm.RecvCtl(r.SP, dst, r.ID, tagFIN)
	rec.End(span)
}

// Recv receives size bytes from rank src into addr. The protocol is
// chosen by size exactly as in Send; both sides must agree.
func (r *Rank) Recv(src int, addr kernel.Addr, size int64) {
	r.killCheck()
	c := r.Comm
	span := trace.NoSpan
	rec := r.Tracer()
	rndv := size >= c.cfg.RendezvousThreshold
	if rec != nil {
		name := "recv_eager"
		if rndv {
			name = "recv_rndv"
		}
		span = rec.Begin(r.Lane(), trace.CatMPI, name,
			trace.F("peer", float64(src)), trace.F("bytes", float64(size)))
	}
	r.SP.Sleep(matchCost)
	if !rndv {
		c.Shm.Recv(r.SP, src, r.ID, tagEager, r.OS, addr, size)
		rec.End(span)
		return
	}
	remote := c.Shm.RecvCtl(r.SP, src, r.ID, tagRTS)
	// The pull inherits the full retry/fallback machinery: the RTS
	// already carries the sender's address, so even a failing kernel
	// assist can finish the payload over the degraded path without any
	// extra protocol round (the sender just waits for the FIN).
	r.VMRead(addr, src, kernel.Addr(remote), size)
	c.Shm.SendCtl(r.SP, r.ID, src, tagFIN, 0)
	rec.End(span)
}

// Sendrecv performs a simultaneous exchange with two (possibly equal)
// peers without deadlocking: the outgoing rendezvous RTS is posted before
// serving the incoming message, and the FIN is collected last. Both
// directions choose eager vs rendezvous independently by size.
func (r *Rank) Sendrecv(dst int, sAddr kernel.Addr, sSize int64, src int, rAddr kernel.Addr, rSize int64) {
	r.killCheck()
	c := r.Comm
	r.SP.Sleep(matchCost) // send-side envelope; Recv below charges its own
	sRndv := sSize >= c.cfg.RendezvousThreshold
	if sRndv {
		c.Shm.SendCtl(r.SP, r.ID, dst, tagRTS, int64(sAddr))
	} else {
		// Eager messages are bounded by the rendezvous threshold, which
		// fits the per-pair queue, so staging cannot deadlock.
		c.Shm.Send(r.SP, r.ID, dst, tagEager, r.OS, sAddr, sSize)
	}
	r.Recv(src, rAddr, rSize)
	if sRndv {
		c.Shm.RecvCtl(r.SP, dst, r.ID, tagFIN)
	}
}

// SendShm forces the eager/shared-memory path regardless of size (used
// by the pure shared-memory baseline designs).
func (r *Rank) SendShm(dst int, addr kernel.Addr, size int64) {
	r.killCheck()
	r.SP.Sleep(matchCost)
	r.Comm.Shm.Send(r.SP, r.ID, dst, tagEager, r.OS, addr, size)
}

// RecvShm forces the shared-memory path regardless of size.
func (r *Rank) RecvShm(src int, addr kernel.Addr, size int64) {
	r.killCheck()
	r.SP.Sleep(matchCost)
	r.Comm.Shm.Recv(r.SP, src, r.ID, tagEager, r.OS, addr, size)
}

// SendrecvShm forces a simultaneous shared-memory exchange regardless of
// size (pure shared-memory baseline for pairwise and ring patterns). The
// send and receive peers may differ; all ranks of the pattern must call
// it together.
func (r *Rank) SendrecvShm(sendPeer int, sAddr kernel.Addr, sSize int64, recvPeer int, rAddr kernel.Addr, rSize int64) {
	r.killCheck()
	r.SP.Sleep(2 * matchCost) // one send-side + one recv-side envelope
	r.Comm.Shm.Exchange(r.SP, r.ID, sendPeer, recvPeer, tagEager, r.OS, sAddr, sSize, rAddr, rSize)
}

// Bcast64 broadcasts an 8-byte value from root (shared-memory control
// collective).
func (r *Rank) Bcast64(root int, val int64) int64 {
	r.killCheck()
	return r.Comm.Shm.Bcast64(r.SP, r.ID, root, val)
}

// Gather64 gathers one 8-byte value per rank at root.
func (r *Rank) Gather64(root int, val int64) []int64 {
	r.killCheck()
	return r.Comm.Shm.Gather64(r.SP, r.ID, root, val)
}

// Allgather64 gathers one 8-byte value per rank everywhere. The result
// is read-only: ranks of one call may share it (shm.Transport.Allgather64).
func (r *Rank) Allgather64(val int64) []int64 {
	r.killCheck()
	return r.Comm.Shm.Allgather64(r.SP, r.ID, val)
}

// Notify posts a 0-byte completion message to dst.
func (r *Rank) Notify(dst int) {
	r.killCheck()
	r.Comm.Shm.Notify(r.SP, r.ID, dst)
}

// WaitNotify consumes a 0-byte completion message from src.
func (r *Rank) WaitNotify(src int) {
	r.killCheck()
	r.Comm.Shm.WaitNotify(r.SP, src, r.ID)
}

// VMRead pulls size bytes from rank src's address space (native CMA
// collective building block; the address came from a control exchange).
// Under an active fault plan, transient failures and short completions
// are absorbed by bounded retries; once the retry budget against a peer
// is exhausted, that (rank, peer) pair degrades permanently to the
// two-copy path, so the payload always lands exactly.
func (r *Rank) VMRead(dst kernel.Addr, src int, srcAddr kernel.Addr, size int64) {
	r.killCheck()
	r.vmOp(dst, src, srcAddr, size, true)
}

// VMWrite pushes size bytes into rank dst's address space, with the
// same retry/fallback behaviour as VMRead.
func (r *Rank) VMWrite(src kernel.Addr, dst int, dstAddr kernel.Addr, size int64) {
	r.killCheck()
	r.vmOp(src, dst, dstAddr, size, false)
}

// vmOp runs one kernel-assisted transfer with graceful degradation.
// local is the caller-side address, remote the address inside peer.
func (r *Rank) vmOp(local kernel.Addr, peer int, remote kernel.Addr, size int64, read bool) {
	dir := func() string {
		if read {
			return "VMRead"
		}
		return "VMWrite"
	}
	if r.Comm.FaultPlan() == nil {
		// Fault-free fast path: any error is a protocol bug.
		var err error
		if read {
			err = r.OS.VMRead(r.SP, local, r.Peer(peer), remote, size)
		} else {
			err = r.OS.VMWrite(r.SP, local, r.Peer(peer), remote, size)
		}
		if err != nil {
			panic(fmt.Sprintf("mpi: %s rank %d <-> %d: %v", dir(), r.ID, peer, err))
		}
		return
	}
	if r.cmaDead != nil && r.cmaDead[peer] {
		r.bounce(local, peer, remote, size, read)
		return
	}
	var done int64
	var err error
	if read {
		done, err = r.OS.VMReadRetry(r.SP, local, r.Peer(peer), remote, size)
	} else {
		done, err = r.OS.VMWriteRetry(r.SP, local, r.Peer(peer), remote, size)
	}
	if err == nil {
		return
	}
	if _, ok := err.(*kernel.ExhaustedError); !ok {
		panic(fmt.Sprintf("mpi: %s rank %d <-> %d: %v", dir(), r.ID, peer, err))
	}
	// The kernel assist against this peer is declared failed: degrade
	// the pair to the two-copy path for the rest of the run and finish
	// the remainder of this transfer over it.
	r.markCMADead(peer)
	r.Comm.FaultPlan().CountFallback()
	if rec := r.Tracer(); rec != nil {
		rec.Instant(r.Lane(), trace.CatFault, "cma_fallback",
			trace.F("peer", float64(peer)), trace.F("completed", float64(done)))
	}
	r.bounce(local+kernel.Addr(done), peer, remote+kernel.Addr(done), size-done, read)
}

// markCMADead degrades the (r, peer) pair to the two-copy path — in
// both directions on both rank objects. Read and write against a pair
// hit the same mm state, so once one side's retry budget is exhausted
// the reverse transfer (e.g. Sendrecv's pull path) would only burn a
// second full budget against a pair already known bad.
func (r *Rank) markCMADead(peer int) {
	if r.cmaDead == nil {
		r.cmaDead = make([]bool, r.Size())
	}
	r.cmaDead[peer] = true
	pr := r.Comm.ranks[peer]
	if pr.cmaDead == nil {
		pr.cmaDead = make([]bool, pr.Size())
	}
	pr.cmaDead[r.ID] = true
}

// bounce moves size bytes over the degraded two-copy path.
func (r *Rank) bounce(local kernel.Addr, peer int, remote kernel.Addr, size int64, read bool) {
	var err error
	if read {
		err = r.OS.BounceRead(r.SP, local, r.Peer(peer), remote, size)
	} else {
		err = r.OS.BounceWrite(r.SP, local, r.Peer(peer), remote, size)
	}
	if err != nil {
		panic(fmt.Sprintf("mpi: bounce rank %d <-> %d: %v", r.ID, peer, err))
	}
	r.Comm.FaultPlan().CountBounce(size)
}

// LocalCopy is an in-process memcpy.
func (r *Rank) LocalCopy(dst, src kernel.Addr, size int64) {
	r.OS.LocalCopy(r.SP, dst, src, size)
}

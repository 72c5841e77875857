// Package cluster extends the single-node simulation to multi-node jobs
// (Fig 17 of the paper and the ROADMAP's network tier): several
// simulated nodes joined by a switched network fabric, with flat
// (single-level), leader-based two-level, and MPI+MPI-style
// shared-leader collectives for all six kinds built on top.
//
// The fabric models what the old flat latency+bandwidth Network could
// not: per-link α/β behind a pluggable topology (two-tier fat tree,
// dragonfly-lite), and a switch-contention term gammaNet(c) — the
// network analogue of the paper's mm-lock γ(c) — that inflates a flow's
// per-byte cost with the number of flows concurrently crossing the same
// link. The paper's point survives the richer model: fast
// contention-aware intra-node collectives make two-level designs win,
// and win more as the node count grows, because the leader phase moves
// O(nodes) network messages where a flat design moves O(world).
package cluster

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/mpi"
	"camc/internal/sim"
	"camc/internal/trace"
)

// Cluster is a multi-node job: NumNodes simulated nodes of the same
// architecture, PPN ranks each, sharing one virtual clock and one
// network fabric.
type Cluster struct {
	Sim    *sim.Simulation
	Arch   *arch.Profile
	Fabric *Fabric
	Nodes  []*mpi.Comm

	// Live is the world-level liveness layer; non-nil when the cluster
	// was built with faults, kills, or an explicit liveness config.
	Live *WorldLiveness

	NumNodes int
	PPN      int
	CopyData bool

	key     fabKey
	clean   bool // last Run finished without error; required for Release
	tainted bool // faults/kills were armed; never pooled (queues may hold residue)
}

// Config describes a multi-node job.
type Config struct {
	Arch        *arch.Profile
	NumNodes    int
	PPN         int    // ranks per node; 0 = architecture default
	Topo        string // topology name (TopoNames); "" = fattree
	SwitchRadix int    // nodes per leaf/group switch; 0 = 16
	CopyData    bool   // move real payload bytes (the check oracle needs this)

	// Fault injects probabilistic faults per node (each node draws from
	// its own seed-salted stream). Kills arms explicit deaths. Either
	// one — or a non-nil Liveness — enables the world liveness layer.
	Fault    *fault.Config
	Liveness *liveness.Config
	Kills    []Kill
}

// Kill is one explicitly targeted death: world rank World dies at its
// Op-th checkpointed MPI operation.
type Kill struct {
	World int
	Op    int
}

func (cfg Config) withDefaults() Config {
	if cfg.PPN == 0 {
		cfg.PPN = cfg.Arch.DefaultProcs
	}
	if cfg.Topo == "" {
		cfg.Topo = "fattree"
	}
	if cfg.SwitchRadix == 0 {
		cfg.SwitchRadix = 16
	}
	return cfg
}

// New builds the cluster. The simulation and fabric come from a pool
// keyed by the fabric shape (see Release), so repeated same-shape runs
// reuse queue storage instead of re-allocating it.
func New(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	key := fabKey{topo: cfg.Topo, nodes: cfg.NumNodes, radix: cfg.SwitchRadix, copyData: cfg.CopyData}
	var s *sim.Simulation
	var fab *Fabric
	if e, ok := fabricPoolGet(key); ok {
		s, fab = e.sim, e.fab
	} else {
		s = sim.New()
		topo, err := TopoByName(cfg.Topo, cfg.NumNodes, cfg.SwitchRadix)
		if err != nil {
			panic(err)
		}
		fab = newFabric(s, topo, cfg.NumNodes, cfg.CopyData)
	}
	cl := &Cluster{
		Sim: s, Arch: cfg.Arch, Fabric: fab,
		NumNodes: cfg.NumNodes, PPN: cfg.PPN, CopyData: cfg.CopyData, key: key,
	}
	for i := 0; i < cfg.NumNodes; i++ {
		node := kernel.NewNode(s, cfg.Arch)
		node.CopyData = cfg.CopyData
		// Distinct pid ranges per node keep kernel trace events on
		// distinct lanes when all nodes share one recorder.
		node.PidBase = i << 20
		if cfg.Fault != nil && cfg.Fault.Active() {
			fc := *cfg.Fault
			// Salt the seed per node so nodes draw distinct fault
			// streams while the whole cluster stays a pure function of
			// the config.
			fc.Seed += int64(i+1) * 7_700_003
			node.SetFaultPlan(fault.New(fc))
		}
		cl.Nodes = append(cl.Nodes, mpi.NewOnNode(node, cfg.PPN, 1<<32))
	}
	for _, k := range cfg.Kills {
		cl.Nodes[cl.NodeOf(k.World)].ArmKill(cl.LocalOf(k.World), k.Op)
	}
	if cfg.Liveness != nil || len(cfg.Kills) > 0 || (cfg.Fault != nil && cfg.Fault.Active()) {
		lcfg := liveness.Defaults()
		if cfg.Liveness != nil {
			lcfg = *cfg.Liveness
		}
		cl.Live = newWorldLiveness(cl, lcfg)
		// Faulty runs can leave undrained flow queues and dead procs;
		// never pool them.
		cl.tainted = cfg.Fault != nil || len(cfg.Kills) > 0
	}
	return cl
}

// Release returns the cluster's simulation and fabric to the pool for
// reuse by a later same-shape New. Only a cluster whose Run completed
// cleanly is poolable (Simulation.Reset requires zero live procs);
// anything else is simply dropped.
func Release(cl *Cluster) {
	if cl == nil || !cl.clean || cl.tainted {
		return
	}
	cl.clean = false
	cl.Fabric.reset()
	cl.Fabric.rec = nil
	cl.Fabric.live = nil
	cl.Sim.Reset()
	fabricPoolPut(cl.key, pooled{sim: cl.Sim, fab: cl.Fabric})
}

// WorldSize returns the total rank count.
func (cl *Cluster) WorldSize() int { return cl.NumNodes * cl.PPN }

// NodeOf maps a world rank to its node id.
func (cl *Cluster) NodeOf(world int) int { return world / cl.PPN }

// LocalOf maps a world rank to its node-local rank id.
func (cl *Cluster) LocalOf(world int) int { return world % cl.PPN }

// WorldRank returns the world-rank handle for (node, local); valid
// inside and outside Run (the mpi.Rank's SP is only set inside).
func (cl *Cluster) WorldRank(w int) *Rank {
	n := cl.NodeOf(w)
	return &Rank{Rank: cl.Nodes[n].Rank(cl.LocalOf(w)), Node: n, World: w, cluster: cl}
}

// AttachTrace attaches one structured recorder to every node and
// registers one lane per world rank, keyed by the rank's (node-offset)
// pid, so intra-node kernel/shm/mpi events and network fabric events
// land on the same per-world-rank lanes. Attach before Run.
func (cl *Cluster) AttachTrace(rec *trace.Recorder) {
	if rec == nil {
		return
	}
	for n, comm := range cl.Nodes {
		comm.Node.SetRecorder(rec)
		lanes := make([]int, cl.PPN)
		for l := 0; l < cl.PPN; l++ {
			w := n*cl.PPN + l
			rec.RegisterLane(w, fmt.Sprintf("w%d (n%d.r%d)", w, n, l), comm.Rank(l).OS.PID())
			lanes[l] = w
		}
		comm.Shm.SetLanes(lanes)
	}
	cl.Fabric.rec = rec
}

// Rank is a world-rank handle: the node-local MPI rank plus its node id.
type Rank struct {
	*mpi.Rank
	Node    int
	World   int
	cluster *Cluster

	routeBuf [maxRouteHops]LinkID
}

// NetSend transmits size bytes starting at addr to world rank dst on
// another node. On materialized runs the payload travels with the
// message; dataless runs move cost only.
func (r *Rank) NetSend(dstWorld int, addr kernel.Addr, size int64) {
	r.KillCheck()
	cl := r.cluster
	dstNode := cl.NodeOf(dstWorld)
	if dstNode == r.Node {
		panic(fmt.Sprintf("cluster: NetSend to same-node rank %d from %d", dstWorld, r.World))
	}
	var data []byte
	if cl.CopyData && size > 0 {
		data = append([]byte(nil), r.OS.Bytes(addr, size)...)
	}
	cl.Fabric.send(r.SP, r.Lane(), r.World, dstWorld, r.Node, dstNode, size, data, r.routeBuf[:])
}

// NetRecv receives size bytes from world rank src on another node into
// addr.
func (r *Rank) NetRecv(srcWorld int, addr kernel.Addr, size int64) {
	r.KillCheck()
	cl := r.cluster
	srcNode := cl.NodeOf(srcWorld)
	if srcNode == r.Node {
		panic(fmt.Sprintf("cluster: NetRecv from same-node rank %d at %d", srcWorld, r.World))
	}
	data := cl.Fabric.recv(r.SP, r.Lane(), srcWorld, srcWorld, r.World, r.Node, size)
	if cl.CopyData && data != nil {
		r.OS.WriteAt(addr, data)
	}
}

// Run spawns body on every world rank and runs the simulation to
// completion, returning the finish time.
func (cl *Cluster) Run(body func(r *Rank)) (float64, error) {
	for n := 0; n < cl.NumNodes; n++ {
		n := n
		comm := cl.Nodes[n]
		comm.Start(func(lr *mpi.Rank) {
			body(&Rank{Rank: lr, Node: n, World: n*cl.PPN + lr.ID, cluster: cl})
		})
	}
	if err := cl.Sim.Run(); err != nil {
		return 0, err
	}
	cl.clean = true
	return cl.Sim.Now(), nil
}

package measure

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/payload"
	"camc/internal/trace"
)

// ClusterOptions configures one cluster recovery run.
type ClusterOptions struct {
	Nodes int    // node count (required)
	PPN   int    // ranks per node; 0 = architecture default
	Topo  string // fabric topology; "" = fattree
	Root  int    // world root of the collective

	// Fault arms per-node probabilistic fault plans; Kills arms explicit
	// deaths (world rank, operation index). The liveness layer is always
	// enabled — Liveness overrides its defaults.
	Fault    *fault.Config
	Liveness *liveness.Config
	Kills    []cluster.Kill

	// MaxSkew staggers rank entry by a seeded uniform draw in
	// [0, MaxSkew) microseconds per world rank.
	SkewSeed int64
	MaxSkew  float64

	// CopyData materializes payload bytes: the attempt and the re-run
	// are then verified byte-level against the reference executor.
	// Dataless runs move cost only and skip verification.
	CopyData bool
}

// ClusterRecoveryResult reports one world-level detect → agree → shrink
// → elect → re-run cycle (the x12 chaos-at-scale experiment). It embeds
// the single-node RecoveryResult latencies and adds the cluster-only
// measures.
type ClusterRecoveryResult struct {
	RecoveryResult

	// ElectLatency spans the leader re-election: from the first survivor
	// entering the election to the last leader holding the verified
	// world leader table. Zero when no rank died.
	ElectLatency float64

	// OldWorld maps survivor ids (new numbering) to original world
	// ranks; NewRoot is the re-run root in new numbering. Nil/zero on a
	// clean run.
	OldWorld []int
	NewRoot  int

	// Residue is what the aborted attempt left in the fabric's flow
	// queues: messages addressed to ranks that died before receiving
	// them. Every entry's To must be a failed rank — survivors drained
	// their queues before the re-run.
	Residue []cluster.Residue

	// Fabric accounting for the link invariants.
	Links    []cluster.LinkStat
	NetBeta  float64
	NetChunk int64
	Events   uint64
}

// ClusterRecovered runs one hierarchical collective on a simulated
// multi-node fabric under armed kills and/or a per-node fault plan,
// then exercises the full world-level recovery path: fabric-crossing
// detection, world agreement, two-tier shrink, deterministic leader
// re-election, and a verified re-run over the survivor world.
func ClusterRecovered(a *arch.Profile, kind core.Kind, design cluster.Design, intraSpec string, count int64, opts ClusterOptions) (ClusterRecoveryResult, error) {
	return clusterRecovered(a, kind, design, intraSpec, count, opts, nil)
}

// ClusterRecoveredTraced measures exactly like ClusterRecovered with a
// trace recorder attached, returning the recorder alongside the result.
func ClusterRecoveredTraced(a *arch.Profile, kind core.Kind, design cluster.Design, intraSpec string, count int64, opts ClusterOptions) (ClusterRecoveryResult, *trace.Recorder, error) {
	rec := trace.NewUnbound()
	res, err := clusterRecovered(a, kind, design, intraSpec, count, opts, rec)
	return res, rec, err
}

func clusterRecovered(a *arch.Profile, kind core.Kind, design cluster.Design, intraSpec string, count int64, opts ClusterOptions, rec *trace.Recorder) (ClusterRecoveryResult, error) {
	lcfg := liveness.Defaults()
	if opts.Liveness != nil {
		lcfg = *opts.Liveness
	}
	cl := cluster.New(cluster.Config{
		Arch: a, NumNodes: opts.Nodes, PPN: opts.PPN, Topo: opts.Topo,
		CopyData: opts.CopyData, Fault: opts.Fault, Liveness: &lcfg, Kills: opts.Kills,
	})
	world := cl.WorldSize()
	coll, err := cluster.Lookup(cl, kind, design, intraSpec)
	if err != nil {
		return ClusterRecoveryResult{}, err
	}
	cl.AttachTrace(rec)

	if _, _, err := payload.BufSizes(kind, world, count); err != nil {
		return ClusterRecoveryResult{}, err
	}
	send := make([]kernel.Addr, world)
	recv := make([]kernel.Addr, world)
	sends := make([][]byte, world) // seeded patterns; all nil when dataless
	for w := 0; w < world; w++ {
		send[w], recv[w], sends[w] = seedBuffers(cl.WorldRank(w).OS, kind, world, w, count, cl.CopyData)
	}
	var skew []float64
	if opts.MaxSkew > 0 {
		skew = drawSkew(opts.SkewSeed, opts.MaxSkew, world)
	}

	// Per-original-world-rank instants; killed ranks leave their slots 0
	// and are excluded from the reductions below.
	starts := make([]float64, world)
	attemptEnds := make([]float64, world)
	rerunStarts := make([]float64, world)
	rerunEnds := make([]float64, world)
	agreedErr := make([]error, world)
	survived := make([]bool, world)

	// Survivor state published by the rank processes (they run one at a
	// time; plain writes are safe). recv2/sends2 are indexed by NEW id.
	recv2 := make([]kernel.Addr, world)
	sends2 := make([][]byte, world)
	var sh *cluster.Shrunk

	_, runErr := cl.Run(func(r *cluster.Rank) {
		w := r.World
		localErr := r.Protected(func() {
			r.WorldBarrier(world)
			starts[w] = float64(r.SP.Now())
			if skew != nil {
				r.SP.Sleep(skew[w])
			}
			coll.Run(r, cluster.Args{Send: send[w], Recv: recv[w], Count: count, Root: opts.Root})
		})
		attemptEnds[w] = float64(r.SP.Now())
		verdict := r.WorldAgree(localErr)
		agreedErr[w] = verdict
		survived[w] = true
		if verdict == nil {
			return
		}
		pd, ok := verdict.(*liveness.PeerDeadError)
		if !ok {
			return // non-liveness failure: surfaced after Run
		}
		// Recovery: disarm this node's remaining seeded kills, then the
		// world-level shrink + election, then the verified re-run.
		if plan := r.Comm.FaultPlan(); plan != nil {
			plan.Revive()
		}
		nr, shr := r.WorldShrink(pd.Ranks, kind, opts.Root)
		id := shr.NewWorld[w]
		if id == 0 {
			sh = shr
		}
		s2, r2, pat := seedBuffers(nr.OS, kind, shr.NewSize, id, count, cl.CopyData)
		recv2[id], sends2[id] = r2, pat
		nr.WorldBarrier(shr.NewSize)
		rerunStarts[w] = float64(r.SP.Now())
		cluster.Rerun(nr, shr, kind, intraSpec, cluster.Args{Send: s2, Recv: r2, Count: count, Root: shr.NewRoot})
		nr.WorldBarrier(shr.NewSize)
		rerunEnds[w] = float64(r.SP.Now())
	})

	res := ClusterRecoveryResult{
		Links: cl.Fabric.LinkStats(), NetBeta: cl.Fabric.Beta, NetChunk: cl.Fabric.ChunkBytes,
	}
	res.Algorithm = coll.Name
	res.Survivors = world
	for _, comm := range cl.Nodes {
		if plan := comm.FaultPlan(); plan != nil {
			res.Stats.Add(plan.Stats())
		}
	}
	if runErr != nil {
		return res, runErr
	}
	res.Events = cl.Sim.EventsProcessed()

	verdict, err := agreedVerdict(agreedErr, survived)
	if err != nil {
		return res, err
	}
	res.FirstLatency = maxWhere(attemptEnds, survived) - maxWhere(starts, survived)
	res.Err = verdict

	if verdict == nil {
		if !cl.CopyData {
			cluster.Release(cl)
			return res, nil
		}
		verr := verifyRecv(kind, opts.Root, count, sends, func(w int) *kernel.Process { return cl.WorldRank(w).OS }, recv)
		if verr == nil {
			cluster.Release(cl)
		}
		return res, verr
	}
	pd, ok := verdict.(*liveness.PeerDeadError)
	if !ok {
		return res, verdict
	}
	res.Failed = pd.Ranks
	if sh == nil {
		return res, fmt.Errorf("measure: agreed on %v but no survivor shrank", pd.Ranks)
	}
	res.Survivors = sh.NewSize
	res.Algorithm = "rerun/" + intraSpec
	res.OldWorld = sh.OldWorld
	res.NewRoot = sh.NewRoot

	wl := cl.Live
	deathAt, anyDead := wl.FirstDeathAt()
	if !anyDead {
		return res, fmt.Errorf("measure: agreed on %v but no view records a death", pd.Ranks)
	}
	agreedAt := wl.AgreedAt(0)
	res.DetectLatency = float64(agreedAt - deathAt)
	res.ShrinkLatency = float64(wl.ShrinkEnd() - agreedAt)
	es, ee := wl.ElectWindow()
	res.ElectLatency = float64(ee - es)
	res.RerunLatency = maxWhere(rerunEnds, survived) - maxWhere(rerunStarts, survived)
	res.Residue = cl.Fabric.Residue()

	if !cl.CopyData {
		return res, nil
	}
	proc := func(id int) *kernel.Process { return cl.WorldRank(sh.OldWorld[id]).OS }
	return res, verifyRecv(kind, sh.NewRoot, count, sends2[:sh.NewSize], proc, recv2)
}

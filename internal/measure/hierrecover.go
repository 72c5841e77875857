package measure

import (
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

	// MaxSkew, when positive, staggers rank entry by a uniform draw in
	// [0, MaxSkew) microseconds per world rank from SkewSeed (0 is a
	// seed like any other).
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
	Links  []cluster.LinkStat
	Events uint64
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
	if err := lcfg.Check(); err != nil {
		return ClusterRecoveryResult{}, err
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
	t := newTally(world, kind, count, opts.Root, cl.CopyData, func(w int) *kernel.Process { return cl.WorldRank(w).OS })
	skew := drawSkew(opts.SkewSeed, opts.MaxSkew, world)
	var sh *cluster.Shrunk

	_, runErr := cl.Run(func(r *cluster.Rank) {
		w := r.World
		localErr := r.Protected(func() {
			r.WorldBarrier(world)
			t.starts[w] = r.SP.Now()
			if skew != nil {
				r.SP.Sleep(skew[w])
			}
			coll.Run(r, cluster.Args{Send: t.first.Send[w], Recv: t.first.Recv[w], Count: count, Root: opts.Root})
		})
		t.ends[w] = r.SP.Now()
		pd := t.agreed(w, r.WorldAgree(localErr))
		if pd == nil {
			return
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
			t.shrunk(shr.NewSize, shr.NewRoot, "rerun/"+intraSpec,
				func(id int) *kernel.Process { return cl.WorldRank(shr.OldWorld[id]).OS })
		}
		t.seed(&t.again, id, nr.OS, shr.NewSize)
		nr.WorldBarrier(shr.NewSize)
		t.rerunStarts[w] = r.SP.Now()
		cluster.Rerun(nr, shr, kind, intraSpec, cluster.Args{Send: t.again.Send[id], Recv: t.again.Recv[id], Count: count, Root: shr.NewRoot})
		nr.WorldBarrier(shr.NewSize)
		t.rerunEnds[w] = r.SP.Now()
	})

	res := ClusterRecoveryResult{Links: cl.Fabric.LinkStats()}
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
	wl := cl.Live
	if sh != nil {
		res.OldWorld, res.NewRoot = sh.OldWorld, sh.NewRoot
		es, ee := wl.ElectWindow()
		res.ElectLatency = ee - es
		res.Residue = cl.Fabric.Residue()
	}
	err = t.settle(&res.RecoveryResult, wl, wl.ShrinkEnd())
	if err == nil && res.Err == nil {
		cluster.Release(cl)
	}
	return res, err
}

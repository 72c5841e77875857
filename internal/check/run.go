package check

import (
	"fmt"
	"math/rand"
	"strings"

	"camc/internal/arch"
	"camc/internal/cluster"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/measure"
	"camc/internal/mpi"
	"camc/internal/payload"
	"camc/internal/trace"
)

// RunResult is everything one checked execution produced: the inputs,
// the virtual latency, the fault accounting, the full trace, and the
// closed-form prediction when one applies. Invariants consume it.
type RunResult struct {
	Spec    Spec
	Latency float64 // us; the first attempt's latency on the recovery path
	Stats   fault.Stats
	Rec     *trace.Recorder
	Procs   int
	Killed  bool    // the plan had the kill class armed
	Pred    float64 // closed-form latency; 0 = no applicable form
	Events  uint64  // simulator events processed by the run

	// Digests is the per-rank payload MemDigest, populated only when the
	// run tracked per-page digests (the sparse cross-check arms).
	Digests []uint64

	// Recovery is set when the kill path ran (see
	// measure.CollectiveRecovered); its payload verification already
	// happened inside the harness.
	Recovery *measure.RecoveryResult

	// Links, NetBeta and NetChunk are set on cluster runs (Spec.Nodes >
	// 0): the fabric's per-link accounting plus the per-byte time and
	// chunk size the link invariants need to bound utilization.
	Links    []cluster.LinkStat
	NetBeta  float64
	NetChunk int64

	// Residue is what a cluster kill run left in the fabric's flow
	// queues after the survivors drained theirs; the shrink-residue
	// invariant requires every entry to be addressed to a failed rank.
	Residue []cluster.Residue

	// Elect is the leader re-election latency of a cluster kill run.
	Elect float64
}

// RunOne executes one spec with real data movement and full tracing,
// compares every receive buffer against the reference executor, and
// evaluates the invariant registry. The returned error is non-nil for
// any differential mismatch or invariant violation (the RunResult is
// still returned for diagnostics); it is nil only for a fully green
// run. RunOne is deterministic: the same Spec produces byte-identical
// results, which is what makes shrunk reproducers trustworthy.
func RunOne(sp Spec) (*RunResult, error) {
	return run(sp, true, false)
}

// run is the one seed → run → verify spine of every checked execution.
// It validates the spec, then either hands a kill plan to the measure
// recovery harness (recovered), which seeds, re-runs and verifies the
// survivors itself, or seeds, runs and verifies the spec's world
// (checked). Either way the result is filled once, then the invariant
// registry runs once.
//
// materialize selects real bytes (CopyData) and with them the
// byte-level check; track selects per-page digest folding
// (mpi.Config.Sparse). RunOne is (true, false); SparseCrossCheck's two
// arms are (true, true) and (false, true).
func run(sp Spec, materialize, track bool) (*RunResult, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	prof, err := arch.ByName(sp.Arch)
	if err != nil {
		return nil, err
	}
	res := &RunResult{Spec: sp, Procs: sp.Procs}
	if sp.Nodes > 0 {
		res.Procs = sp.Nodes * sp.Procs
	}
	var release func()
	if sp.Kills() {
		err = recovered(res, prof)
	} else {
		release, err = checked(res, prof, materialize, track)
	}
	if err == nil {
		err = violationsErr(res)
	}
	if err == nil && release != nil {
		release()
	}
	return res, err
}

// checked builds sp's world — one node's communicator, or a cluster of
// them over a fabric (Spec.Nodes > 0) — seeds it from the spec's rng
// stream, runs the collective traced, and verifies every buffer against
// the reference executor. release, when non-nil, returns a green run's
// fabric to its pool.
func checked(res *RunResult, prof *arch.Profile, materialize, track bool) (release func(), err error) {
	sp := res.Spec
	w, err := build(sp, prof, materialize, track)
	if err != nil {
		return nil, err
	}
	res.Rec = w.rec
	// The spec's rng stream: rank 0..p-1 send contents, then the skew.
	p := res.Procs
	sendLen, _, _ := payload.BufSizes(sp.Kind, p, sp.Count) // the spec is validated
	rng := rand.New(rand.NewSource(sp.Seed))
	b := payload.NewBuffers(p)
	for r := 0; r < p; r++ {
		content := make([]byte, sendLen)
		rng.Read(content)
		b.Seed(r, w.proc(r), sp.Kind, p, sp.Count, content)
	}
	var skew []float64
	if sp.Skew > 0 {
		skew = make([]float64, p)
		for i := range skew {
			skew[i] = rng.Float64() * sp.Skew
		}
	}

	if res.Latency, err = w.run(&b, skew); err != nil {
		return nil, fmt.Errorf("check: %s: simulation failed: %v", sp, err)
	}
	w.account(res)
	if track {
		res.Digests = make([]uint64, p)
		for r := range res.Digests {
			res.Digests[r] = w.proc(r).MemDigest()
		}
	}
	if materialize {
		if err := b.Check(sp.Kind, p, sp.Root, sp.Count, w.proc); err != nil {
			return nil, fmt.Errorf("check: %s: %v", sp, err)
		}
	}
	// The closed forms model one dedicated node; faults, skew and
	// ambient pressure bend γ(c) away from them.
	if sp.Nodes == 0 && sp.Faults == "" && sp.Skew == 0 && sp.Ambient == 0 {
		if pred, ok := predictFor(prof, p, sp.Kind, sp.Algo, sp.Count); ok {
			res.Pred = pred
		}
	}
	return w.release, nil
}

// world is the machine checked runs a spec on.
type world struct {
	rec  *trace.Recorder
	proc func(rank int) *kernel.Process
	// run times the collective over b, rank r entering skew[r] late
	// (skew may be nil).
	run func(b *payload.Buffers, skew []float64) (float64, error)
	// account copies the run's fault, event and fabric accounting.
	account func(res *RunResult)
	release func() // nil on a node
}

// build makes sp's world: one node's communicator timed through
// measure.Time, or a cluster whose latency is the fabric run's end
// (entry skew included).
func build(sp Spec, prof *arch.Profile, materialize, track bool) (*world, error) {
	fcfg := sp.faultConfig()
	rec := trace.NewUnbound()
	if sp.Nodes == 0 {
		algo, err := core.LookupAlgorithm(sp.Kind, sp.Algo)
		if err != nil {
			return nil, err
		}
		c := mpi.New(mpi.Config{Arch: prof, Procs: sp.Procs, CopyData: materialize, Sparse: track,
			MemPerProc: measure.MemPerRank(prof, sp.Procs, sp.Count, 1), Ambient: sp.Ambient, Fault: fcfg})
		c.AttachTrace(rec)
		return &world{
			rec:  rec,
			proc: func(r int) *kernel.Process { return c.Rank(r).OS },
			run: func(b *payload.Buffers, skew []float64) (float64, error) {
				return measure.Time(c, algo.Run, b.Send, b.Recv, sp.Count, sp.Root, 1, skew)
			},
			account: func(res *RunResult) {
				res.Stats = c.FaultPlan().Stats()
				res.Events = c.Sim.EventsProcessed()
			},
		}, nil
	}
	var lcfg *liveness.Config
	if sp.Deadline > 0 {
		l := liveness.Defaults()
		l.Deadline = sp.Deadline
		lcfg = &l
	}
	cl := cluster.New(cluster.Config{
		Arch: prof, NumNodes: sp.Nodes, PPN: sp.Procs,
		Topo: sp.Topo, CopyData: materialize, Fault: fcfg, Liveness: lcfg,
	})
	coll, err := cluster.Lookup(cl, sp.Kind, cluster.Design(sp.Design), sp.Algo)
	if err != nil {
		return nil, err
	}
	cl.AttachTrace(rec)
	return &world{
		rec:  rec,
		proc: func(w int) *kernel.Process { return cl.WorldRank(w).OS },
		run: func(b *payload.Buffers, skew []float64) (float64, error) {
			return cl.Run(func(r *cluster.Rank) {
				if skew != nil {
					r.SP.Sleep(skew[r.World])
				}
				coll.Run(r, cluster.Args{Send: b.Send[r.World], Recv: b.Recv[r.World], Count: sp.Count, Root: sp.Root})
			})
		},
		account: func(res *RunResult) {
			res.Events = cl.Sim.EventsProcessed()
			res.Links, res.NetBeta, res.NetChunk = cl.Fabric.LinkStats(), cl.Fabric.Beta, cl.Fabric.ChunkBytes
			for _, comm := range cl.Nodes {
				if plan := comm.FaultPlan(); plan != nil {
					res.Stats.Add(plan.Stats())
				}
			}
		},
		release: func() { cluster.Release(cl) },
	}, nil
}

// recovered runs a kill spec through the measure recovery harness of
// its world — detect, agree, shrink, replan (on a cluster: two-tier
// shrink and leader re-election) and a re-run the harness verifies
// against the reference executor at the survivor count — and copies
// the harness's record into res.
func recovered(res *RunResult, prof *arch.Profile) error {
	sp := res.Spec
	lcfg := liveness.Defaults()
	if sp.Deadline > 0 {
		lcfg.Deadline = sp.Deadline
	}
	res.Killed = true
	if sp.Nodes == 0 {
		rres, rec, err := measure.CollectiveRecoveredTraced(prof, sp.Kind, sp.Algo, sp.Count,
			measure.Options{Procs: sp.Procs, Root: sp.Root, Ambient: sp.Ambient, Fault: sp.faultConfig(), Liveness: &lcfg,
				SkewSeed: sp.Seed, MaxSkew: sp.Skew})
		res.Rec = rec
		if err != nil {
			return fmt.Errorf("check: %s: recovery harness: %v", sp, err)
		}
		res.Latency, res.Stats, res.Recovery = rres.FirstLatency, rres.Stats, &rres
		return nil
	}
	cres, rec, err := measure.ClusterRecoveredTraced(prof, sp.Kind, cluster.Design(sp.Design), sp.Algo, sp.Count,
		measure.ClusterOptions{Nodes: sp.Nodes, PPN: sp.Procs, Topo: sp.Topo, Root: sp.Root,
			Fault: sp.faultConfig(), Liveness: &lcfg, SkewSeed: sp.Seed, MaxSkew: sp.Skew, CopyData: true})
	res.Rec, res.Stats, res.Recovery, res.Events = rec, cres.Stats, &cres.RecoveryResult, cres.Events
	res.Links, res.NetBeta, res.NetChunk = cres.Links, cres.NetBeta, cres.NetChunk
	res.Residue, res.Elect = cres.Residue, cres.ElectLatency
	if err != nil {
		return fmt.Errorf("check: %s: cluster recovery harness: %v", sp, err)
	}
	res.Latency = cres.FirstLatency
	return nil
}

// violationsErr folds the invariant registry's findings into one error.
func violationsErr(res *RunResult) error {
	vs := CheckInvariants(res)
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.Error()
	}
	return fmt.Errorf("check: %s: %d invariant violation(s): %s", res.Spec, len(vs), strings.Join(msgs, "; "))
}

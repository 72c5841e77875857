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
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	prof, err := arch.ByName(sp.Arch)
	if err != nil {
		return nil, err
	}
	if sp.Nodes > 0 {
		if sp.Kills() {
			return runClusterRecovered(sp, prof, sp.faultConfig())
		}
		return runCluster(sp, prof)
	}
	fcfg := sp.faultConfig()
	if fcfg != nil && fcfg.KillProb > 0 {
		return runRecovered(sp, prof, fcfg)
	}
	return runPayload(sp, prof, fcfg, true, false)
}

// runCluster is the multi-node oracle path: the spec's collective runs
// on a simulated fabric with materialized payload, every world rank's
// receive buffer is compared against the sequential reference executor
// at world size, and the invariant registry — including the
// network-specific invariants — is evaluated over the traced run.
func runCluster(sp Spec, prof *arch.Profile) (*RunResult, error) {
	world := sp.Nodes * sp.Procs
	fcfg := sp.faultConfig() // non-kill classes only (kills dispatch earlier)
	var lcfg *liveness.Config
	if sp.Deadline > 0 {
		l := liveness.Defaults()
		l.Deadline = sp.Deadline
		lcfg = &l
	}
	cl := cluster.New(cluster.Config{
		Arch: prof, NumNodes: sp.Nodes, PPN: sp.Procs,
		Topo: sp.Topo, CopyData: true, Fault: fcfg, Liveness: lcfg,
	})
	coll, err := cluster.Lookup(cl, sp.Kind, cluster.Design(sp.Design), sp.Algo)
	if err != nil {
		return nil, err
	}
	rec := trace.NewUnbound()
	cl.AttachTrace(rec)

	proc := func(w int) *kernel.Process { return cl.WorldRank(w).OS }
	b, err := seedRandom(sp, world, proc)
	if err != nil {
		return nil, err
	}

	res := &RunResult{Spec: sp, Rec: rec, Procs: world}
	done, err := cl.Run(func(r *cluster.Rank) {
		if b.skew != nil {
			r.SP.Sleep(b.skew[r.World])
		}
		coll.Run(r, cluster.Args{Send: b.send[r.World], Recv: b.recv[r.World], Count: sp.Count, Root: sp.Root})
	})
	if err != nil {
		return res, fmt.Errorf("check: %s: simulation failed: %v", sp, err)
	}
	res.Latency = done
	res.Events = cl.Sim.EventsProcessed()
	res.Links = cl.Fabric.LinkStats()
	res.NetBeta = cl.Fabric.Beta
	res.NetChunk = cl.Fabric.ChunkBytes
	for _, comm := range cl.Nodes {
		if plan := comm.FaultPlan(); plan != nil {
			res.Stats.Add(plan.Stats())
		}
	}
	if err := b.verify(sp, proc); err != nil {
		return res, err
	}
	err = violationsErr(res)
	if err == nil {
		cluster.Release(cl)
	}
	return res, err
}

// runClusterRecovered is the cluster kill path: the spec's plan
// permanently kills ranks mid-collective across the fabric, so the run
// goes through the world-level recovery harness (fabric-crossing
// detection, world agreement, two-tier shrink, leader re-election,
// re-run). The harness verifies the re-run payload against the
// reference executor at the survivor world size; this wrapper runs the
// invariant registry — including the three recovery invariants — over
// the traced cycle.
func runClusterRecovered(sp Spec, prof *arch.Profile, fcfg *fault.Config) (*RunResult, error) {
	lcfg := liveness.Defaults()
	if sp.Deadline > 0 {
		lcfg.Deadline = sp.Deadline
	}
	cres, rec, err := measure.ClusterRecoveredTraced(prof, sp.Kind, cluster.Design(sp.Design), sp.Algo, sp.Count,
		measure.ClusterOptions{Nodes: sp.Nodes, PPN: sp.Procs, Topo: sp.Topo, Root: sp.Root,
			Fault: fcfg, Liveness: &lcfg, SkewSeed: sp.Seed, MaxSkew: sp.Skew, CopyData: true})
	res := &RunResult{Spec: sp, Rec: rec, Procs: sp.Nodes * sp.Procs, Killed: true,
		Links: cres.Links, NetBeta: cres.NetBeta, NetChunk: cres.NetChunk,
		Residue: cres.Residue, Elect: cres.ElectLatency, Events: cres.Events}
	res.Recovery = &cres.RecoveryResult
	res.Stats = cres.Stats
	if err != nil {
		return res, fmt.Errorf("check: %s: cluster recovery harness: %v", sp, err)
	}
	res.Latency = cres.FirstLatency
	return res, violationsErr(res)
}

// runPayload is one arm of a payload-carrying execution: seeded
// payloads in, the algorithm timed traced through measure.Time, then the
// invariant registry. materialize selects real bytes (CopyData) and
// with them the byte-level oracle comparison against the reference
// executor; track selects per-page digest folding (mpi.Config.Sparse).
// The two knobs are independent: (true, false) is the differential
// oracle path, (true, true) and (false, true) are the two arms
// SparseCrossCheck compares.
func runPayload(sp Spec, prof *arch.Profile, fcfg *fault.Config, materialize, track bool) (*RunResult, error) {
	algo, err := core.LookupAlgorithm(sp.Kind, sp.Algo)
	if err != nil {
		return nil, err
	}
	p := sp.Procs
	c := mpi.New(mpi.Config{Arch: prof, Procs: p, CopyData: materialize, Sparse: track, MemPerProc: measure.MemPerRank(prof, p, sp.Count, 1), Ambient: sp.Ambient, Fault: fcfg})
	rec := trace.NewUnbound()
	c.AttachTrace(rec)

	proc := func(r int) *kernel.Process { return c.Rank(r).OS }
	b, err := seedRandom(sp, p, proc)
	if err != nil {
		return nil, err
	}

	res := &RunResult{Spec: sp, Rec: rec, Procs: p}
	res.Latency, err = measure.Time(c, algo.Run, b.send, b.recv, sp.Count, sp.Root, 1, b.skew)
	if err != nil {
		return res, fmt.Errorf("check: %s: simulation failed: %v", sp, err)
	}
	res.Stats = c.FaultPlan().Stats()
	res.Events = c.Sim.EventsProcessed()
	if track {
		res.Digests = make([]uint64, p)
		for r := range res.Digests {
			res.Digests[r] = c.Rank(r).OS.MemDigest()
		}
	}

	if materialize {
		if err := b.verify(sp, proc); err != nil {
			return res, err
		}
	}

	// The closed forms model a dedicated machine; ambient pressure bends
	// γ(c) away from them, so no prediction is attached on ambient specs.
	if fcfg == nil && sp.Skew == 0 && sp.Ambient == 0 {
		if pred, ok := predictFor(prof, p, sp.Kind, sp.Algo, sp.Count); ok {
			res.Pred = pred
		}
	}
	return res, violationsErr(res)
}

// runRecovered is the kill path: the spec's plan permanently kills
// ranks mid-operation, so the run goes through the full recovery
// harness (detect, agree, shrink, replan, verified re-run — the payload
// check happens inside measure.CollectiveRecoveredTraced against the
// reference executor at the survivor count). The trace and fault
// invariants then run over the whole recovery cycle.
func runRecovered(sp Spec, prof *arch.Profile, fcfg *fault.Config) (*RunResult, error) {
	lcfg := liveness.Defaults()
	if sp.Deadline > 0 {
		lcfg.Deadline = sp.Deadline
	}
	rres, rec, err := measure.CollectiveRecoveredTraced(prof, sp.Kind, sp.Algo, sp.Count,
		measure.Options{Procs: sp.Procs, Root: sp.Root, Ambient: sp.Ambient, Fault: fcfg, Liveness: &lcfg,
			SkewSeed: sp.Seed, MaxSkew: sp.Skew})
	res := &RunResult{Spec: sp, Rec: rec, Procs: sp.Procs, Killed: true}
	if err != nil {
		return res, fmt.Errorf("check: %s: recovery harness: %v", sp, err)
	}
	res.Latency = rres.FirstLatency
	res.Stats = rres.Stats
	res.Recovery = &rres
	return res, violationsErr(res)
}

// seeded is one run's payload: every rank's buffer bases, the seeded
// send contents, and the per-rank entry skew (nil without skew=).
type seeded struct {
	send, recv []kernel.Addr
	sends      [][]byte
	skew       []float64
}

// seedRandom allocates p ranks' buffers for sp and seeds them from the
// spec's rng stream: random send contents and a 0xEE-poisoned receive
// buffer, then the entry skew. Seeding goes through the kernel's
// WriteAt/FillAt payload layer — never a raw Bytes slice — so the
// materialized and digest-only arms fold identical content digests.
// proc maps a rank to its process.
func seedRandom(sp Spec, p int, proc func(rank int) *kernel.Process) (*seeded, error) {
	sendLen, recvLen, err := payload.BufSizes(sp.Kind, p, sp.Count)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(sp.Seed))
	b := &seeded{send: make([]kernel.Addr, p), recv: make([]kernel.Addr, p), sends: make([][]byte, p)}
	for r := 0; r < p; r++ {
		os := proc(r)
		b.send[r], b.recv[r] = os.Alloc(sendLen), os.Alloc(recvLen)
		b.sends[r] = make([]byte, sendLen)
		rng.Read(b.sends[r])
		os.WriteAt(b.send[r], b.sends[r])
		os.FillAt(b.recv[r], recvLen, 0xEE)
	}
	if sp.Skew > 0 {
		b.skew = make([]float64, p)
		for i := range b.skew {
			b.skew[i] = rng.Float64() * sp.Skew
		}
	}
	return b, nil
}

// verify compares every rank's receive buffer against the reference
// executor over the seeded sends, then requires every send buffer to
// still hold its seed: the collective owns only Recv.
func (b *seeded) verify(sp Spec, proc func(rank int) *kernel.Process) error {
	p := len(b.sends)
	_, recvLen, _ := payload.BufSizes(sp.Kind, p, sp.Count)
	err := payload.Verify(sp.Kind, p, sp.Count, sp.Root, b.sends,
		func(r int) []byte { return proc(r).Bytes(b.recv[r], recvLen) })
	if err != nil {
		return fmt.Errorf("check: %s: %v", sp, err)
	}
	for r, want := range b.sends {
		got := proc(r).Bytes(b.send[r], int64(len(want)))
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("check: %s: rank %d send buffer mutated at offset %d", sp, r, i)
			}
		}
	}
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

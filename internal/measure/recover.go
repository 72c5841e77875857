package measure

import (
	"fmt"
	"math/rand"
	"slices"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/liveness"
	"camc/internal/mpi"
	"camc/internal/payload"
	"camc/internal/trace"
)

// RecoveryResult reports one detect → agree → shrink → replan → re-run
// cycle of the x9 chaos experiment. All latencies are in simulated
// microseconds.
type RecoveryResult struct {
	// FirstLatency is the first attempt's wall time: from the instant
	// the last rank entered the protected collective to the instant the
	// last survivor left it (with its local verdict in hand). For a
	// clean run this is the ordinary collective latency.
	FirstLatency float64
	// Err is the agreed verdict: nil for a clean run, otherwise a
	// *liveness.PeerDeadError every survivor returned identically.
	Err error
	// Failed is the agreed failed-rank set (original numbering).
	Failed []int
	// Survivors is the post-shrink communicator size.
	Survivors int
	// Algorithm is the re-planned algorithm name the survivors ran
	// (equal to the original spec's resolution for a clean run).
	Algorithm string
	// DetectLatency is the agreement instant minus the first death
	// instant: how long the communicator took to convert a silent
	// permanent failure into a coherent verdict on every survivor.
	DetectLatency float64
	// ShrinkLatency is from the agreement instant to the last survivor
	// holding a rebuilt, address-exchanged communicator.
	ShrinkLatency float64
	// RerunLatency is the survivors' re-run collective latency.
	RerunLatency float64
	// Stats are the fault plan's accumulated counters (Kills included).
	Stats fault.Stats
}

// CollectiveRecovered runs one collective under a fault plan that may
// permanently kill ranks mid-operation, then exercises the full
// recovery path: every survivor gets a deadline-bounded typed error,
// agrees on the failed set, shrinks the communicator, re-plans the
// algorithm for the survivor count (re-rooting if the root died), and
// re-runs the collective with fresh payload buffers — verified
// byte-for-byte against the reference executor at the survivor count.
// If no rank dies, the first run's payload is verified instead and the
// recovery latencies are zero. Entry skew (Options.SkewSeed/MaxSkew)
// applies to the first attempt only.
func CollectiveRecovered(a *arch.Profile, kind core.Kind, spec string, count int64, opts Options) (RecoveryResult, error) {
	return collectiveRecovered(a, kind, spec, count, opts, nil)
}

// CollectiveRecoveredTraced measures exactly like CollectiveRecovered
// but with a trace recorder attached (liveness events land in the
// "liveness" category), returning the recorder alongside the result.
func CollectiveRecoveredTraced(a *arch.Profile, kind core.Kind, spec string, count int64, opts Options) (RecoveryResult, *trace.Recorder, error) {
	rec := trace.NewUnbound()
	res, err := collectiveRecovered(a, kind, spec, count, opts, rec)
	return res, rec, err
}

func collectiveRecovered(a *arch.Profile, kind core.Kind, spec string, count int64, opts Options, rec *trace.Recorder) (RecoveryResult, error) {
	procs := opts.procs(a)
	root := opts.Root
	algo, err := core.LookupAlgorithm(kind, spec)
	if err != nil {
		return RecoveryResult{}, err
	}
	lcfg := opts.Liveness
	if lcfg == nil {
		d := liveness.Defaults()
		lcfg = &d
	}
	if err := lcfg.Check(); err != nil {
		return RecoveryResult{}, err
	}
	if _, _, err := payload.BufSizes(kind, procs, count); err != nil {
		return RecoveryResult{}, err
	}
	c := mpi.New(mpi.Config{Arch: a, Procs: procs, CopyData: true, MemPerProc: MemPerRank(a, procs, count, 1),
		Mechanism: opts.Mechanism, Ambient: opts.Ambient, Fault: opts.Fault, Liveness: lcfg})
	c.AttachTrace(rec)
	plan := c.FaultPlan()
	board := c.Liveness() // pre-shrink board: holds death + agreement instants
	send, recv, sends := seedComm(c, kind, count)
	// The first attempt's entry skew, drawn as Collective draws it; the
	// re-run starts unskewed.
	skew := opts.skew(procs)

	// Per-original-rank instants; killed ranks leave their slots at 0 and
	// are excluded from the max/min reductions below.
	starts := make([]float64, procs)
	attemptEnds := make([]float64, procs)
	shrinkEnds := make([]float64, procs)
	rerunStarts := make([]float64, procs)
	rerunEnds := make([]float64, procs)
	agreedErr := make([]error, procs)
	survived := make([]bool, procs)

	// Survivor-communicator state, published by the rank processes (the
	// simulator runs one at a time, so plain writes are safe). recv2 and
	// sends2 are indexed by post-shrink rank ID; only the first
	// Survivors entries are used.
	recv2 := make([]kernel.Addr, procs)
	sends2 := make([][]byte, procs)
	var (
		shrunk    *mpi.Comm
		newRoot   int
		rerunName string
	)

	c.Start(func(r *mpi.Rank) {
		localErr := r.Protected(func() {
			r.Barrier()
			if skew != nil {
				r.SP.Sleep(skew[r.ID])
			}
			starts[r.ID] = r.SP.Now()
			if d := plan.StragglerDelay(r.ID, 0); d > 0 {
				if rec != nil {
					rec.Instant(r.Lane(), trace.CatFault, "straggle", trace.F("delay", d))
				}
				r.SP.Sleep(d)
			}
			algo.Run(r, core.Args{Send: send[r.ID], Recv: recv[r.ID], Count: count, Root: root})
			r.Barrier()
		})
		attemptEnds[r.ID] = r.SP.Now()
		verdict := r.Agree(localErr)
		agreedErr[r.ID] = verdict
		survived[r.ID] = true
		if verdict == nil {
			return
		}
		pd, ok := verdict.(*liveness.PeerDeadError)
		if !ok {
			return // non-liveness failure: surfaced after Run
		}
		// Recovery: disarm further seeded kills, rebuild, re-plan, re-run.
		plan.Revive()
		nr := r.Shrink(pd.Ranks)
		shrinkEnds[r.ID] = r.SP.Now()
		nc := nr.Comm
		nalgo, rerr := core.Replan(kind, spec, nc.Size())
		if rerr != nil {
			panic(fmt.Sprintf("measure: replan after shrink: %v", rerr))
		}
		nroot := nc.RankFromParent(root)
		if nroot < 0 {
			nroot = 0 // the root died: re-root at the lowest survivor
		}
		if nr.ID == 0 {
			shrunk, newRoot, rerunName = nc, nroot, nalgo.Name
		}
		send2, r2, pat := seedBuffers(nr.OS, kind, nc.Size(), nr.ID, count, true)
		recv2[nr.ID], sends2[nr.ID] = r2, pat
		nr.Barrier()
		rerunStarts[r.ID] = r.SP.Now()
		nalgo.Run(nr, core.Args{Send: send2, Recv: r2, Count: count, Root: nroot})
		nr.Barrier()
		rerunEnds[r.ID] = r.SP.Now()
	})
	if err := c.Sim.Run(); err != nil {
		return RecoveryResult{Stats: plan.Stats()}, err
	}

	res := RecoveryResult{Algorithm: algo.Name, Survivors: procs, Stats: plan.Stats()}
	verdict, err := agreedVerdict(agreedErr, survived)
	if err != nil {
		return res, err
	}
	res.FirstLatency = maxWhere(attemptEnds, survived) - maxWhere(starts, survived)
	res.Err = verdict

	if verdict == nil {
		// Clean run: ordinary payload verification, nothing shrank.
		return res, verifyComm(c, kind, root, count, sends, recv)
	}
	pd, ok := verdict.(*liveness.PeerDeadError)
	if !ok {
		return res, verdict // a non-liveness error is the caller's problem
	}
	res.Failed = pd.Ranks
	if shrunk == nil {
		return res, fmt.Errorf("measure: agreed on %v but no survivor shrank", pd.Ranks)
	}
	res.Survivors = shrunk.Size()
	res.Algorithm = rerunName
	deathAt, anyDead := board.FirstDeathAt()
	if !anyDead {
		return res, fmt.Errorf("measure: agreed on %v but board records no death", pd.Ranks)
	}
	agreedAt := board.AgreedAt(0)
	res.DetectLatency = float64(agreedAt - deathAt)
	res.ShrinkLatency = maxWhere(shrinkEnds, survived) - float64(agreedAt)
	res.RerunLatency = maxWhere(rerunEnds, survived) - maxWhere(rerunStarts, survived)
	res.Stats = plan.Stats()
	return res, verifyComm(shrunk, kind, newRoot, count, sends2[:shrunk.Size()], recv2)
}

// agreedVerdict returns the verdict the survivors agreed on. Every
// survivor must hold the same one; a survivor that disagrees with the
// first is an error.
func agreedVerdict(agreed []error, survived []bool) (error, error) {
	var verdict error
	first := true
	for r, v := range agreed {
		if !survived[r] {
			continue
		}
		if first {
			verdict, first = v, false
			continue
		}
		if !sameVerdict(verdict, v) {
			return nil, fmt.Errorf("measure: incoherent verdicts: rank %d has %v, an earlier survivor has %v", r, v, verdict)
		}
	}
	return verdict, nil
}

// sameVerdict reports whether two agreed verdicts are equal: both nil,
// or both *PeerDeadError over the same rank set.
func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	pa, oka := a.(*liveness.PeerDeadError)
	pb, okb := b.(*liveness.PeerDeadError)
	if !oka || !okb {
		return a == b
	}
	return slices.Equal(pa.Ranks, pb.Ranks)
}

// maxWhere returns the max of v over the indices where ok is true.
func maxWhere(v []float64, ok []bool) float64 {
	m, seen := 0.0, false
	for i, x := range v {
		if !ok[i] {
			continue
		}
		if !seen || x > m {
			m, seen = x, true
		}
	}
	return m
}

// drawSkew returns n seeded entry delays, uniform in [0, max) us.
func drawSkew(seed int64, max float64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	skew := make([]float64, n)
	for i := range skew {
		skew[i] = rng.Float64() * max
	}
	return skew
}

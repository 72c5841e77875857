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
	"camc/internal/sim"
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
	t := newTally(procs, kind, count, root, true, func(r int) *kernel.Process { return c.Rank(r).OS })
	// The first attempt's entry skew, drawn as Collective draws it; the
	// re-run starts unskewed.
	skew := opts.skew(procs)
	shrinkEnds := make([]float64, procs)

	c.Start(func(r *mpi.Rank) {
		localErr := r.Protected(func() {
			r.Barrier()
			if skew != nil {
				r.SP.Sleep(skew[r.ID])
			}
			t.starts[r.ID] = r.SP.Now()
			if d := plan.StragglerDelay(r.ID, 0); d > 0 {
				if rec != nil {
					rec.Instant(r.Lane(), trace.CatFault, "straggle", trace.F("delay", d))
				}
				r.SP.Sleep(d)
			}
			algo.Run(r, core.Args{Send: t.first.Send[r.ID], Recv: t.first.Recv[r.ID], Count: count, Root: root})
			r.Barrier()
		})
		t.ends[r.ID] = r.SP.Now()
		pd := t.agreed(r.ID, r.Agree(localErr))
		if pd == nil {
			return
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
			t.shrunk(nc.Size(), nroot, nalgo.Name, func(id int) *kernel.Process { return nc.Rank(id).OS })
		}
		t.seed(&t.again, nr.ID, nr.OS, nc.Size())
		nr.Barrier()
		t.rerunStarts[r.ID] = r.SP.Now()
		nalgo.Run(nr, core.Args{Send: t.again.Send[nr.ID], Recv: t.again.Recv[nr.ID], Count: count, Root: nroot})
		nr.Barrier()
		t.rerunEnds[r.ID] = r.SP.Now()
	})
	if err := c.Sim.Run(); err != nil {
		return RecoveryResult{Stats: plan.Stats()}, err
	}
	res := RecoveryResult{Algorithm: algo.Name, Survivors: procs, Stats: plan.Stats()}
	return res, t.settle(&res, board, maxWhere(shrinkEnds, t.survived))
}

// tally is one recovery run's record, shared by both harnesses. The
// per-rank slices are indexed by original rank and written by the rank
// bodies (the simulator runs one at a time, so plain writes are safe);
// a killed rank leaves its slots zero and survived false, which keeps
// it out of the reductions.
type tally struct {
	starts, ends           []float64 // the first attempt's window
	rerunStarts, rerunEnds []float64
	verdicts               []error
	survived               []bool

	kind  core.Kind
	count int64
	root  int
	data  bool // false: a dataless run, whose payload is not checked
	proc  func(rank int) *kernel.Process

	// first is the first attempt's payload; again is the re-run's,
	// indexed by survivor id.
	first, again payload.Buffers

	// The survivor world, published by its rank 0 after the shrink;
	// newProc is nil until then.
	size, newRoot int
	algo          string
	newProc       func(id int) *kernel.Process
}

// newTally returns the empty record of an n-rank run with the first
// attempt's payload seeded, rank r's buffers in proc(r).
func newTally(n int, kind core.Kind, count int64, root int, data bool, proc func(rank int) *kernel.Process) *tally {
	t := &tally{
		starts: make([]float64, n), ends: make([]float64, n),
		rerunStarts: make([]float64, n), rerunEnds: make([]float64, n),
		verdicts: make([]error, n), survived: make([]bool, n),
		kind: kind, count: count, root: root, data: data, proc: proc,
		first: payload.NewBuffers(n), again: payload.NewBuffers(n),
	}
	for r := 0; r < n; r++ {
		t.seed(&t.first, r, proc(r), n)
	}
	return t
}

// seed seeds rank r of a p-rank world into b: payload.Pattern, or
// allocations only on a dataless run.
func (t *tally) seed(b *payload.Buffers, r int, os *kernel.Process, p int) {
	var content []byte
	if t.data {
		content = payload.Pattern(t.kind, p, r, t.count)
	}
	b.Seed(r, os, t.kind, p, t.count, content)
}

// agreed records rank r's agreed verdict and returns the dead set when
// the verdict calls for recovery (nil for a clean run or an error the
// harness surfaces after the run).
func (t *tally) agreed(r int, verdict error) *liveness.PeerDeadError {
	t.verdicts[r], t.survived[r] = verdict, true
	pd, _ := verdict.(*liveness.PeerDeadError)
	return pd
}

// shrunk publishes the survivor world the re-run runs on.
func (t *tally) shrunk(size, root int, algo string, proc func(id int) *kernel.Process) {
	t.size, t.newRoot, t.algo, t.newProc = size, root, algo, proc
}

// deathBoard is the liveness record settle reads: a node's board or a
// cluster's world view.
type deathBoard interface {
	FirstDeathAt() (sim.Time, bool)
	AgreedAt(round int) sim.Time
}

// settle is the post-run step both recovery harnesses share. It
// reduces the tally to the agreed verdict and the first attempt's
// window. A clean run's first-attempt payload is then checked. After an
// agreed death it fills the failed set, the survivor count and
// algorithm, and the detect, shrink and re-run latencies (shrinkEnd is
// the harness's own end of the shrink phase), and checks the re-run's
// payload at the survivor count.
func (t *tally) settle(res *RecoveryResult, board deathBoard, shrinkEnd float64) error {
	verdict, err := agreedVerdict(t.verdicts, t.survived)
	if err != nil {
		return err
	}
	res.FirstLatency = maxWhere(t.ends, t.survived) - maxWhere(t.starts, t.survived)
	res.Err = verdict
	if verdict == nil {
		return t.check(&t.first, len(t.survived), t.root, t.proc)
	}
	pd, ok := verdict.(*liveness.PeerDeadError)
	if !ok {
		return verdict // a non-liveness error is the caller's problem
	}
	res.Failed = pd.Ranks
	if t.newProc == nil {
		return fmt.Errorf("measure: agreed on %v but no survivor shrank", pd.Ranks)
	}
	res.Survivors, res.Algorithm = t.size, t.algo
	deathAt, anyDead := board.FirstDeathAt()
	if !anyDead {
		return fmt.Errorf("measure: agreed on %v but no board records a death", pd.Ranks)
	}
	agreedAt := board.AgreedAt(0)
	res.DetectLatency = agreedAt - deathAt
	res.ShrinkLatency = shrinkEnd - agreedAt
	res.RerunLatency = maxWhere(t.rerunEnds, t.survived) - maxWhere(t.rerunStarts, t.survived)
	return t.check(&t.again, t.size, t.newRoot, t.newProc)
}

// check verifies the first p ranks of b (nothing on a dataless run).
func (t *tally) check(b *payload.Buffers, p, root int, proc func(rank int) *kernel.Process) error {
	if !t.data {
		return nil
	}
	if err := b.Check(t.kind, p, root, t.count, proc); err != nil {
		return fmt.Errorf("measure: %s: %v", t.kind, err)
	}
	return nil
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

// drawSkew returns n seeded entry delays, uniform in [0, max) us, or
// nil when max is not positive. Every seed, 0 included, draws.
func drawSkew(seed int64, max float64, n int) []float64 {
	if max <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	skew := make([]float64, n)
	for i := range skew {
		skew[i] = rng.Float64() * max
	}
	return skew
}

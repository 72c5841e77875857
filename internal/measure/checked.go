package measure

import (
	"fmt"

	"camc/internal/arch"
	"camc/internal/core"
	"camc/internal/fault"
	"camc/internal/kernel"
	"camc/internal/mpi"
	"camc/internal/payload"
)

// CollectiveChecked times a collective exactly like Collective — the
// same window (Time), skew and fault plan — but with real data movement,
// verifies that every byte of every receive buffer landed exactly per
// MPI semantics and that every send buffer still holds its seed, then
// returns the latency and the fault statistics the run accumulated. It
// is the measurement core of the x8 robustness experiment: under an
// injected fault plan the latency includes retries, backoff and
// degraded-path traffic, and the byte verification proves the
// degradation was graceful — the payload is identical to a fault-free
// run's.
func CollectiveChecked(a *arch.Profile, kind core.Kind, algo func(*mpi.Rank, core.Args), count int64, opts Options) (float64, fault.Stats, error) {
	procs, iters := opts.procs(a), opts.iters()
	if _, _, err := payload.BufSizes(kind, procs, count); err != nil {
		return 0, fault.Stats{}, err
	}
	if err := opts.checkLiveness(); err != nil {
		return 0, fault.Stats{}, err
	}
	c := mpi.New(mpi.Config{Arch: a, Procs: procs, CopyData: true, MemPerProc: MemPerRank(a, procs, count, iters), Mechanism: opts.Mechanism, Ambient: opts.Ambient, Fault: opts.Fault, Liveness: opts.Liveness})
	b := payload.NewBuffers(procs)
	for r := 0; r < procs; r++ {
		b.Seed(r, c.Rank(r).OS, kind, procs, count, payload.Pattern(kind, procs, r, count))
	}
	lat, err := Time(c, algo, b.Send, b.Recv, count, opts.Root, iters, opts.skew(procs*iters))
	st := c.FaultPlan().Stats()
	if err != nil {
		return 0, st, err
	}
	if err := b.Check(kind, procs, opts.Root, count, func(r int) *kernel.Process { return c.Rank(r).OS }); err != nil {
		return lat, st, fmt.Errorf("measure: %s: %v", kind, err)
	}
	return lat, st, nil
}

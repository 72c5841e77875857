package shm

import (
	"math"
	"testing"

	"camc/internal/arch"
	"camc/internal/kernel"
	"camc/internal/sim"
)

// barrierRun is one t=0 barrier on p ranks: each rank's exit instant,
// the order the ranks returned in, and the order they resumed in after
// one further yield at the exit instant — the second order catches a
// rank that returned early and ran on ahead of ranks still queued at the
// same instant.
type barrierRun struct {
	exit          float64 // barrierFromZero's instant and first rank
	first         int
	exits         []float64
	order, resume []int
}

// runBarrier runs one t=0 barrier on tr's ranks, the real Barrier or
// its closed form. The transport's queues are empty afterwards, so one
// transport serves both runs.
func runBarrier(s *sim.Simulation, tr *Transport, closed bool) barrierRun {
	p := tr.nranks
	exit, first := tr.barrierFromZero()
	out := barrierRun{exit: exit, first: first, exits: make([]float64, p)}
	for i := 0; i < p; i++ {
		i := i
		s.Spawn("rank", func(sp *sim.Proc) {
			if closed {
				tr.EnterBarrierFromZero(sp, i)
			} else {
				tr.Barrier(sp, i)
			}
			out.exits[i] = sp.Now()
			out.order = append(out.order, i)
			sp.Yield()
			out.resume = append(out.resume, i)
		})
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
	s.Reset()
	return out
}

// TestBarrierFromZeroMatchesBarrier is the closed form's differential
// test: at every rank count through 1100 (across denseQueueLimit and
// ctlVecThreshold) on all three architectures, every rank of the real
// Barrier must leave at the closed-form instant bit for bit, the ranks
// must resume in the full rotation starting at the closed-form first
// rank, and EnterBarrierFromZero must reproduce the instant and both
// orders exactly.
func TestBarrierFromZeroMatchesBarrier(t *testing.T) {
	counts := make([]int, 0, 1100)
	for p := 1; p <= 1100; p++ {
		counts = append(counts, p)
	}
	if testing.Short() || raceDetectorOn {
		// Every count across denseQueueLimit, then a few past
		// ctlVecThreshold and at the top of the range.
		counts = append(counts[:260], 511, 512, 513, 1023, 1024, 1100)
	}
	for _, a := range []*arch.Profile{arch.KNL(), arch.Broadwell(), arch.Power8()} {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			t.Parallel()
			s := sim.New()
			for _, p := range counts {
				tr := New(kernel.NewNode(s, a), p)
				ref := runBarrier(s, tr, false)
				closed := runBarrier(s, tr, true)
				for i, x := range ref.exits {
					if math.Float64bits(x) != math.Float64bits(ref.exit) || math.Float64bits(closed.exits[i]) != math.Float64bits(ref.exit) {
						t.Fatalf("p=%d rank %d: barrier exits at %v, closed-form run at %v, closed form %v",
							p, i, x, closed.exits[i], ref.exit)
					}
				}
				for k := 0; k < p; k++ {
					want := (ref.first + k) % p
					if ref.order[k] != want || ref.resume[k] != want {
						t.Fatalf("p=%d: barrier wake order %v / %v, want rotation from %d",
							p, ref.order, ref.resume, ref.first)
					}
					if closed.order[k] != want || closed.resume[k] != want {
						t.Fatalf("p=%d: closed-form wake order %v / %v, want rotation from %d",
							p, closed.order, closed.resume, ref.first)
					}
				}
			}
		})
	}
}
